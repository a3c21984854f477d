//! Buffer-manager conformance suite.
//!
//! Four layers of guarantees:
//!
//! 1. **Golden eviction order** — a fixed access sequence through a
//!    single-shard manager must produce an exact, hand-derived
//!    eviction order per policy (and the three policies demonstrably
//!    differ on a hot-set + scan pattern).
//! 2. **Per-device baseline** — an `IoContext::warm` device (a
//!    single-shard LRU manager) must be bit-identical (every `IoStats`
//!    counter, every simulated nanosecond) to a naive `Vec` LRU model,
//!    and the §6.2 warm sweeps' `IoSnapshot`s are pinned as goldens.
//! 3. **Concurrency** — probe results and I/O totals through the
//!    shared manager from 8 threads must match a single-threaded run
//!    of the same streams when the working set fits (no evictions →
//!    interleaving-independent), and under eviction pressure the
//!    manager's counters must survive a single-threaded replay of its
//!    serialized access trace exactly.
//! 4. **The point of sharing one budget** — with its footprint
//!    reserved out of a tight budget, the small BF-Tree leaves the
//!    cache to data pages and answers faster than the B+-Tree.

use std::sync::Arc;

use bftree_bench::{
    build_bftree, build_btree, build_fdtree, build_index, run_probes, run_probes_parallel,
    sweep_bftree, Dataset, IndexKind,
};
use bftree_bufferpool::{Access, BufferManager, PolicyKind};
use bftree_storage::tuple::PK_OFFSET;
use bftree_storage::{
    DeviceKind, DeviceProfile, Duplicates, HeapFile, IoContext, IoSnapshot, PageDevice, Relation,
    StorageConfig, TupleLayout, PAGE_SIZE,
};
use bftree_workloads::synthetic::{build_relation_r, SyntheticConfig};
use bftree_workloads::{popular_probe_streams, probes_from_domain, KeyPopularity};

const PAGE: u64 = PAGE_SIZE as u64;

/// Drive `pages` through a fresh single-shard manager of `capacity`
/// pages and return the eviction order.
fn eviction_order(policy: PolicyKind, capacity: u64, accesses: &[(u64, bool)]) -> Vec<u64> {
    let mgr = BufferManager::with_shards(capacity * PAGE, policy, 1);
    let pool = mgr.register_pool("golden");
    let mut order = Vec::new();
    for &(page, expect_hit) in accesses {
        match mgr.touch(pool, page, PAGE) {
            Access::Hit => assert!(expect_hit, "page {page} unexpectedly hit"),
            Access::Miss { evicted } => {
                assert!(!expect_hit, "page {page} unexpectedly missed");
                order.extend(evicted.iter().map(|&(_, p)| p));
            }
        }
    }
    order
}

/// Hot pages 1, 2 (touched twice) then a scan 3..=7 through a 4-page
/// budget: strict LRU flushes the hot set, clock spares what its
/// reference bits remember, 2Q sacrifices the scan itself.
#[test]
fn golden_eviction_orders_differ_across_policies() {
    let accesses = [
        (1, false),
        (2, false),
        (1, true),
        (2, true),
        (3, false),
        (4, false),
        (5, false),
        (6, false),
        (7, false),
    ];
    assert_eq!(
        eviction_order(PolicyKind::Lru, 4, &accesses),
        vec![1, 2, 3],
        "LRU evicts the hot set first (scan pollution)"
    );
    assert_eq!(
        eviction_order(PolicyKind::Clock, 4, &accesses),
        vec![3, 4, 1],
        "clock's reference bits buy the hot set one extra lap"
    );
    assert_eq!(
        eviction_order(PolicyKind::TwoQ, 4, &accesses),
        vec![3, 4, 5],
        "2Q drains the probationary scan and keeps the hot set"
    );
}

#[test]
fn golden_lru_order_is_strict() {
    // Capacity 3: [1 2 3] resident, touch 2 (MRU now 2), then 4, 5, 6.
    let accesses = [
        (1, false),
        (2, false),
        (3, false),
        (2, true),
        (4, false), // evicts 1
        (5, false), // evicts 3
        (6, false), // evicts 2
    ];
    assert_eq!(eviction_order(PolicyKind::Lru, 3, &accesses), vec![1, 3, 2]);
}

/// A warm device is a strict LRU: across an eviction-heavy workload
/// the full `IoSnapshot` — hits, evictions, device reads, simulated
/// nanoseconds — equals what a naive `Vec` LRU model predicts.
#[test]
fn shared_manager_matches_private_device_baseline() {
    let pool_pages = 64usize;
    let device = IoContext::warm(StorageConfig::SsdSsd, pool_pages).index;
    let mut model: Vec<u64> = Vec::new(); // front = MRU
    let (mut hits, mut evictions, mut reads) = (0u64, 0u64, 0u64);

    let mut state = 0xDEAD_BEEFu64;
    for _ in 0..50_000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let page = (state >> 33) % 256; // 4x the pool: constant eviction
        device.read_random(page);
        if let Some(at) = model.iter().position(|&p| p == page) {
            model.remove(at);
            hits += 1;
        } else {
            reads += 1;
            if model.len() == pool_pages {
                model.pop();
                evictions += 1;
            }
        }
        model.insert(0, page);
    }
    let sim_ns =
        reads * DeviceProfile::ssd().random_read_ns + hits * DeviceProfile::memory().random_read_ns;
    assert_eq!(
        device.snapshot(),
        read_snapshot(reads, 0, hits, evictions, sim_ns),
        "warm device drifted from LRU"
    );
    assert!(hits > 0 && evictions > 0, "workload warmed");
}

/// With a budget large enough that nothing is ever evicted, hit/miss
/// totals are interleaving-independent (first toucher misses, every
/// later toucher hits), so an 8-thread run through the shared manager
/// must match a single-threaded run of the same streams to the last
/// counter and simulated nanosecond — and produce the same probe
/// results.
#[test]
fn concurrent_probes_match_single_threaded_baseline_when_working_set_fits() {
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for pk in 0..8_000u64 {
        heap.append_record(pk, pk / 11);
    }
    let rel = Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap();
    let domain: Vec<u64> = (0..8_000).collect();
    let streams = popular_probe_streams(&domain, KeyPopularity::Zipfian { theta: 0.99 }, 500, 8, 7);
    let budget = 4 * rel.heap().page_count() * PAGE; // everything fits
    for kind in IndexKind::ALL {
        let index = build_index(kind, &rel, 1e-4);

        let io_single =
            IoContext::with_shared_budget(StorageConfig::SsdSsd, budget, PolicyKind::Lru);
        let flat: Vec<u64> = streams.iter().flatten().copied().collect();
        let single = run_probes(index.as_ref(), &rel, &flat, &io_single);
        let expect = io_single.snapshot_total();

        let io_par = IoContext::with_shared_budget(StorageConfig::SsdSsd, budget, PolicyKind::Lru);
        io_par.buffer_manager().unwrap().set_tracing(true);
        let r = run_probes_parallel(index.as_ref(), &rel, &streams, &io_par);
        let got = io_par.snapshot_total();

        assert_eq!(r.hit_rate(), single.hit_rate, "{}", index.name());
        assert_eq!(got.cache_hits, expect.cache_hits, "{}", index.name());
        assert_eq!(got.cache_evictions, 0, "{}", index.name());
        assert_eq!(
            got.device_reads(),
            expect.device_reads(),
            "{}",
            index.name()
        );
        assert_eq!(got.sim_ns, expect.sim_ns, "{}", index.name());
        assert!(
            io_par.buffer_manager().unwrap().verify_replay().exact,
            "{}: trace replay diverged",
            index.name()
        );
    }
}

/// Under real eviction pressure hit/miss splits legitimately depend on
/// thread interleaving, but the manager's counters must still be
/// *self*-exact: a single-threaded replay of the serialized per-shard
/// access traces reproduces hits, misses, evictions, and residency
/// bit-for-bit, and the devices' sharded IoStats agree with the
/// manager's own ledger.
#[test]
fn concurrent_pressure_counters_survive_replay() {
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for pk in 0..8_000u64 {
        heap.append_record(pk, pk / 11);
    }
    let rel = Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap();
    let domain: Vec<u64> = (0..8_000).collect();
    let streams =
        popular_probe_streams(&domain, KeyPopularity::Zipfian { theta: 0.99 }, 500, 8, 11);
    let budget = rel.heap().page_count() * PAGE / 8; // heavy pressure
    let cells = PolicyKind::ALL
        .into_iter()
        .flat_map(|policy| IndexKind::ALL.map(|kind| (policy, kind)));
    for (policy, kind) in cells {
        let index = build_index(kind, &rel, 1e-4);
        let io = IoContext::with_shared_budget(StorageConfig::SsdSsd, budget, policy);
        let policy = format!("{policy}/{}", kind.label());
        let mgr = Arc::clone(io.buffer_manager().unwrap());
        mgr.set_tracing(true);
        let r = run_probes_parallel(index.as_ref(), &rel, &streams, &io);

        let check = mgr.verify_replay();
        assert!(
            check.exact,
            "{policy}: live {:?} != replay {:?}",
            check.live, check.replayed
        );
        let stats = mgr.stats();
        assert_eq!(stats.hits, r.io_total.cache_hits, "{policy}: ledgers agree");
        assert_eq!(
            stats.evictions, r.io_total.cache_evictions,
            "{policy}: eviction ledgers agree"
        );
        assert_eq!(
            stats.misses,
            r.io_total.device_reads(),
            "{policy}: every miss reached a device"
        );
        assert!(stats.evictions > 0, "{policy}: pressure was real");
        assert_eq!(r.hit_rate(), 1.0, "{policy}: probes all found their key");
    }
}

/// Prewarming composes with a shared budget: an
/// `IoContext::with_shared_budget` index device prewarmed with the
/// upper levels absorbs descents exactly like `IoContext::warm`.
#[test]
fn prewarmed_shared_context_absorbs_upper_levels() {
    let io = IoContext::with_shared_budget(StorageConfig::SsdHdd, 1 << 22, PolicyKind::TwoQ);
    io.prewarm_index(0..32u64);
    io.index.read_random(5);
    let s = io.index.snapshot();
    assert_eq!(s.device_reads(), 0);
    assert_eq!(s.cache_hits, 1);
    let stats = io.buffer_stats().unwrap();
    assert_eq!(stats.misses, 0, "prewarm counts no misses");
    assert_eq!(stats.resident_pages, 32);
}

/// Memory-device contexts reject nothing but cache nothing: unmetered
/// correctness runs stay available with a shared budget configured.
#[test]
fn memory_index_device_stays_uncached_under_shared_budget() {
    let io = IoContext::with_shared_budget(StorageConfig::MemSsd, 1 << 20, PolicyKind::Lru);
    assert!(io.index.is_lock_free());
    io.index.read_random(1);
    io.index.read_random(1);
    assert_eq!(io.index.snapshot().cache_hits, 0);
    assert_eq!(io.index.snapshot().device_reads(), 2);
    assert_eq!(io.index.kind(), DeviceKind::Memory);
}

/// The durable write path's ingest memtable competes with cached data
/// pages for the same memory: reserving its worst-case footprint
/// shrinks the shared page budget by exactly the capacity estimate,
/// and is a no-op on contexts without a shared manager.
#[test]
fn durable_memtable_reserves_from_the_shared_budget() {
    use bftree_access::{DurableConfig, DurableIndex};
    use bftree_wal::DurabilityMode;

    let mut heap = HeapFile::new(TupleLayout::new(256));
    for pk in 0..2_000u64 {
        heap.append_record(pk, pk);
    }
    let rel = Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap();
    let inner = build_index(IndexKind::BfTree, &rel, 1e-4);
    let index = DurableIndex::new(
        inner,
        &rel,
        PageDevice::cold(DeviceKind::Ssd),
        DurableConfig {
            flush_batch: 256,
            durability: DurabilityMode::GroupCommit {
                max_records: 64,
                max_bytes: 16 * 1024,
            },
        },
    );

    let budget = 64 * PAGE;
    let io = IoContext::with_shared_budget(StorageConfig::SsdSsd, budget, PolicyKind::Lru);
    let remaining = index.reserve_memtable_budget(&io);
    assert!(index.memtable_capacity_bytes() > 0);
    assert_eq!(
        remaining,
        budget - index.memtable_capacity_bytes(),
        "reservation must shrink the page budget by the memtable capacity"
    );

    // No shared manager, nothing to reserve.
    assert_eq!(index.reserve_memtable_budget(&IoContext::unmetered()), 0);
}

/// One warm run the way `experiments.rs::make_io` and `fig12_shd` do
/// it: pool sized by `capacity`, prewarmed with `upper`, then probed.
fn warm_run(
    index: &dyn bftree_bench::AccessMethod,
    rel: &Relation,
    probes: &[u64],
    config: StorageConfig,
    capacity: usize,
    upper: Vec<u64>,
) -> (f64, IoSnapshot) {
    let io = IoContext::warm(config, capacity.max(1));
    io.prewarm_index(upper);
    let run = run_probes(index, rel, probes, &io);
    (run.mean_us, io.snapshot_total())
}

/// A read-only golden snapshot (every read moves one page).
fn read_snapshot(random: u64, seq: u64, hits: u64, evictions: u64, sim_ns: u64) -> IoSnapshot {
    IoSnapshot {
        random_reads: random,
        seq_reads: seq,
        cache_hits: hits,
        cache_evictions: evictions,
        bytes_read: (random + seq) * PAGE,
        sim_ns,
        ..IoSnapshot::default()
    }
}

/// The §6.2 warm-cache figures, pinned: the full `IoSnapshot` of one
/// BF-Tree and one B+-Tree warm run per device-resident-index
/// configuration (the `sweep_bftree`/`baseline_btree` warm path at
/// small scale). Recorded at the commit before the private per-device
/// LRU was folded into the buffer manager; leaf reads evict prewarmed
/// upper pages here, so any drift in LRU order, admission or eviction
/// accounting changes these numbers.
#[test]
fn golden_warm_sweep_snapshots() {
    let config = SyntheticConfig {
        n_tuples: 300_000,
        tuple_size: 64,
        ..SyntheticConfig::scaled_mb(8)
    };
    let ds = Dataset {
        relation: Relation::new(build_relation_r(&config), PK_OFFSET, Duplicates::Unique).unwrap(),
        label: "PK",
    };
    let domain: Vec<u64> = (0..config.n_tuples).collect();
    let probes = probes_from_domain(&domain, 500, 0xF165);
    let bf = build_bftree(&ds.relation, 1e-9);
    let bp = build_btree(&ds.relation);
    let sweep = sweep_bftree(&ds, &probes, &[1e-9], &StorageConfig::WARMABLE, true);
    // (BF-Tree sim_ns, B+-Tree sim_ns) in `WARMABLE` order; the
    // counters do not depend on the device kinds.
    let golden_ns = [
        (15_541_300, 16_045_600),
        (3_759_291_300, 3_759_795_600),
        (9_232_653_800, 9_540_145_600),
    ];
    for (i, &config) in StorageConfig::WARMABLE.iter().enumerate() {
        let upper = bf.upper_page_ids();
        let (bf_us, bf_snap) = warm_run(&bf, &ds.relation, &probes, config, upper.len(), upper);
        let upper = bp.internal_node_ids();
        let (_, bp_snap) = warm_run(&bp, &ds.relation, &probes, config, upper.len(), upper);
        let (bf_ns, bp_ns) = golden_ns[i];
        assert_eq!(bf_snap, read_snapshot(1231, 0, 769, 731, bf_ns), "{config}");
        assert_eq!(bp_snap, read_snapshot(1272, 0, 728, 772, bp_ns), "{config}");
        assert_eq!(
            sweep[i].result.mean_us, bf_us,
            "{config}: sweep_bftree's warm path is the pinned one"
        );
    }
}

/// `fig12_shd`'s warm FD-Tree run (pool sized to every FD-Tree page,
/// prewarmed with the levels above the bottom run), pinned the same
/// way.
#[test]
fn golden_fig12_warm_fdtree_snapshots() {
    use bftree_workloads::shd::{self, ShdConfig};

    let config = ShdConfig::paper_like(2_000);
    let domain = shd::timestamp_domain(&shd::generate_readings(&config));
    let rel = Relation::new(
        shd::build_heap(&config),
        shd::TIMESTAMP,
        Duplicates::Contiguous,
    )
    .unwrap();
    let probes = probes_from_domain(&domain, 500, 0xF1612);
    let fd = build_fdtree(&rel);
    let golden_ns = [16_870_800, 3_797_405_600, 4_890_580_600];
    for (&config, sim_ns) in StorageConfig::WARMABLE.iter().zip(golden_ns) {
        let all = fd.all_page_ids();
        let keep = all.len().saturating_sub(fd.total_pages() as usize / 2);
        let upper: Vec<u64> = all.iter().copied().take(keep).collect();
        let (_, snap) = warm_run(&fd, &rel, &probes, config, all.len(), upper);
        assert_eq!(snap, read_snapshot(646, 1179, 356, 0, sim_ns), "{config}");
    }
}

/// The memory-pressure claim the paper's argument implies: index and
/// data pages share one budget, the in-memory index's resident
/// footprint is reserved out of it, and what is left caches data
/// pages. At 10 % of the heap the B+-Tree's footprint (6 % of the
/// heap) takes most of the budget, the BF-Tree's (1 %) almost none, so
/// the BF-Tree answers a Zipfian probe stream faster end to end
/// despite its false reads. Single-threaded, so the simulated means
/// repeat exactly.
#[test]
fn under_a_tight_shared_budget_the_bftree_outruns_the_bplustree() {
    let config = SyntheticConfig::scaled_mb(4);
    let rel = Relation::new(build_relation_r(&config), PK_OFFSET, Duplicates::Unique).unwrap();
    let budget = rel.heap().page_count() * PAGE / 10;
    let domain: Vec<u64> = (0..config.n_tuples).collect();
    let zipfian = KeyPopularity::Zipfian { theta: 0.99 };
    let probes = popular_probe_streams(&domain, zipfian, 4_000, 1, 0xB0D9E7).remove(0);
    let mean_us = |kind: IndexKind| {
        let index = build_index(kind, &rel, 1e-4);
        let io = IoContext::with_shared_budget(StorageConfig::MemSsd, budget, PolicyKind::Lru);
        io.reserve_index_footprint(index.resident_bytes().min(budget));
        run_probes(index.as_ref(), &rel, &probes, &io); // fill the pool
        run_probes(index.as_ref(), &rel, &probes, &io).mean_us
    };
    let (bf, bp) = (mean_us(IndexKind::BfTree), mean_us(IndexKind::BPlusTree));
    assert!(
        bf < bp,
        "BF-Tree {bf} us/probe must beat B+-Tree {bp} us/probe"
    );
}
