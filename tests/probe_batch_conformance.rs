//! Batch-vs-scalar conformance: `AccessMethod::probe_batch` must be
//! observationally identical to a loop of scalar `probe` calls — the
//! same matches for every key, and the same simulated I/O totals to
//! the read and the nanosecond — for every index, every batch size,
//! two fpps, and under concurrent batch service. Batching
//! is a CPU/cache optimization, never a change of the cost model;
//! this suite is the contract's enforcement.

use bftree::{BfTree, DuplicateHandling};
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
/// competitors, with the BF-Tree at a loose fpp and at a tight one
/// (on the unique relation, members of about 230 and 700 bits).
fn built_indexes(rel: &Relation) -> Vec<(String, Box<dyn AccessMethod>)> {
    let mut out: Vec<(String, Box<dyn AccessMethod>)> = Vec::new();
    for fpp in [1e-3, 1e-9] {
        out.push((
            format!("bf-tree/{fpp:.0e}"),
            Box::new(BfTree::builder().fpp(fpp).build(rel).expect("valid config")),
        ));
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

/// Keys below this precede every indexed key.
const BASE: u64 = 1_000;
/// Tuples per duplicate run: runs cross 16-tuple pages.
const RUN: u64 = 23;

/// `n` tuples whose indexed attribute starts at [`BASE`]: unique on
/// the pk, or in contiguous runs of [`RUN`] on att1.
fn based_relation(n: u64, duplicates: Duplicates) -> Relation {
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for i in 0..n {
        heap.append_record(BASE + i, BASE + i / RUN);
    }
    let attr = if duplicates == Duplicates::Unique {
        PK_OFFSET
    } else {
        ATT1_OFFSET
    };
    Relation::new(heap, attr, duplicates).expect("conventional layout")
}

/// The BF-Trees whose plans are hardest to get right, each with the
/// relation its probes read and the keys deleted from it (through
/// [`AccessMethod::delete`], so the relation's heap marks them dead):
/// - a tree of small leaves, bulk-loaded over half its keys, so
///   duplicate runs straddle sibling leaves and a key's candidate span
///   covers several, then split many times by scattered inserts of the
///   rest; some keys deleted; probed over a prefix of its heap, so
///   filters name pages past `page_count`;
/// - an `AllCoveringPages` tree over the same runs, some keys deleted;
/// - a bulk-built unique tree, some keys deleted.
fn hard_trees() -> Vec<(&'static str, BfTree, Relation, Vec<u64>)> {
    let rel = based_relation(24_000, Duplicates::Contiguous);
    let half = BASE + 12_000 / RUN;
    let mut split = BfTree::builder()
        .fpp(1e-3)
        .page_size(512)
        .build_slice(&rel, 0..=half)
        .expect("valid config");
    let heap = rel.heap();
    let entries: Vec<(u64, (u64, usize))> = heap
        .iter_attr(rel.attr())
        .filter(|&(_, _, key)| key > half)
        .map(|(pid, slot, key)| (key, (pid, slot)))
        .collect();
    let n = entries.len();
    let scattered: Vec<_> = (0..n).map(|i| entries[i * 7_919 % n]).collect();
    for chunk in scattered.chunks(500) {
        AccessMethod::insert_batch(&mut split, chunk, &rel).expect("valid relation");
    }
    split.check_invariants();
    let leaves = split.leaves();
    assert!(
        leaves
            .iter()
            .filter_map(|l| Some((l, &leaves[l.next? as usize])))
            .any(|(l, r)| l.n_keys > 0 && l.max_key >= r.min_key),
        "a run straddles two sibling leaves"
    );
    let split_deleted: Vec<u64> = (BASE..BASE + 24_000 / RUN).step_by(9).collect();
    for &key in &split_deleted {
        AccessMethod::delete(&mut split, key, &rel).expect("valid relation");
    }
    let prefix = heap.truncated(heap.tuple_count() - 700);
    let prefix_pages = prefix.page_count();
    let prefix = Relation::new(prefix, ATT1_OFFSET, Duplicates::Contiguous).expect("layout");
    assert!(
        split.leaves().iter().any(|l| l.max_pid >= prefix_pages),
        "filters name pages past the probed heap's end"
    );

    let runs = based_relation(8_000, Duplicates::Contiguous);
    let mut covering = BfTree::builder()
        .fpp(1e-2)
        .duplicates(DuplicateHandling::AllCoveringPages)
        .build(&runs)
        .expect("valid config");
    let covering_deleted: Vec<u64> = (BASE..BASE + 8_000 / RUN).step_by(7).collect();
    for &key in &covering_deleted {
        AccessMethod::delete(&mut covering, key, &runs).expect("valid relation");
    }

    let unique = based_relation(8_000, Duplicates::Unique);
    let mut bulk = BfTree::builder()
        .fpp(1e-3)
        .build(&unique)
        .expect("valid config");
    let bulk_deleted: Vec<u64> = (BASE..BASE + 8_000).step_by(13).collect();
    for &key in &bulk_deleted {
        AccessMethod::delete(&mut bulk, key, &unique).expect("valid relation");
    }
    vec![
        (
            "split runs over a heap prefix",
            split,
            prefix,
            split_deleted,
        ),
        ("all-covering runs", covering, runs, covering_deleted),
        ("bulk unique", bulk, unique, bulk_deleted),
    ]
}

/// Keys below the first leaf, live, deleted and absent ones, in
/// decorrelated order.
fn hard_keys(rel: &Relation) -> Vec<u64> {
    let top = rel.heap().iter_attr(rel.attr()).map(|(_, _, k)| k).max();
    let span = top.expect("a non-empty relation") + 200;
    (0..1_500u64).map(|i| i * 2_654_435_761 % span).collect()
}

/// Batch ≡ scalar where the plan is hardest: on every [`hard_trees`]
/// case, batches of 15, 16, 17 and 33 keys — around the planned group
/// of 16 — return the scalar loop's `Probe`s and leave both devices'
/// `IoSnapshot`s equal to its, on cold devices and on one shared LRU
/// pool. `probe_first` over the same keys keeps the early-termination
/// contract: the probe's first match, a miss's whole probe, and no
/// more reads than the probe.
#[test]
fn bf_tree_batches_equal_scalar_probes_where_the_plan_is_hardest() {
    let cold = || IoContext::cold(StorageConfig::SsdSsd);
    let pooled =
        || IoContext::with_shared_budget(StorageConfig::SsdSsd, 48 * 4096, PolicyKind::Lru);
    for (name, tree, rel, deleted) in hard_trees() {
        let keys = hard_keys(&rel);
        for (devices, fresh) in [("cold", &cold as &dyn Fn() -> IoContext), ("lru", &pooled)] {
            let scalar_io = fresh();
            let expect: Vec<Probe> = keys
                .iter()
                .map(|&key| tree.probe(key, &rel, &scalar_io).expect("valid relation"))
                .collect();
            assert!(expect.iter().any(|p| p.found()), "{name}: some hits");
            assert!(
                expect.iter().any(|p| p.false_reads > 0),
                "{name}: false reads"
            );
            let dead_reads = keys
                .iter()
                .zip(&expect)
                .filter(|(k, _)| deleted.contains(*k));
            for (&key, p) in dead_reads.clone() {
                assert!(!p.found(), "{name}: deleted key {key} found");
            }
            assert!(
                dead_reads.clone().any(|(_, p)| p.false_reads > 0),
                "{name}: a deleted key's probe reads its dead tuples' pages"
            );
            for batch in [15, 16, 17, 33] {
                let batch_io = fresh();
                let got: Vec<Probe> = keys
                    .chunks(batch)
                    .flat_map(|chunk| tree.probe_batch(chunk, &rel, &batch_io).expect("valid"))
                    .collect();
                for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
                    assert_eq!(g, e, "{name}, {devices}, batch {batch}: key {}", keys[i]);
                }
                assert_eq!(got.len(), expect.len(), "{name}: batch {batch} lost keys");
                assert_eq!(
                    batch_io.index.snapshot(),
                    scalar_io.index.snapshot(),
                    "{name}, {devices}, batch {batch}: index device"
                );
                assert_eq!(
                    batch_io.data.snapshot(),
                    scalar_io.data.snapshot(),
                    "{name}, {devices}, batch {batch}: data device"
                );
            }

            let first_io = fresh();
            for (&key, full) in keys.iter().zip(&expect) {
                let first = tree.probe_first(key, &rel, &first_io).expect("valid");
                assert_eq!(first.matches, full.matches[..full.matches.len().min(1)]);
                if full.found() {
                    assert!(first.pages_read <= full.pages_read, "{name}: key {key}");
                } else {
                    assert_eq!(&first, full, "{name}: a miss reads every candidate");
                }
            }
            assert!(
                first_io.snapshot_total().device_reads()
                    <= scalar_io.snapshot_total().device_reads(),
                "{name}, {devices}: probe_first reads no more than probe"
            );
        }
    }
}
