//! Concurrency quickstart: serve one BF-Tree from many threads.
//!
//! Shows the three layers of the concurrent serving path:
//! 1. lock-free parallel probing of a shared `&dyn AccessMethod`
//!    (the trait is `Send + Sync`; cold devices use sharded counters),
//! 2. per-thread skewed workloads (Zipfian, YCSB's default θ = 0.99),
//! 3. mixed read/insert service through a `ConcurrentIndex`.
//!
//! ```text
//! cargo run --release --example concurrent_probes
//! ```

use std::collections::HashMap;

use bftree::{AccessMethod, BfTree};
use bftree_access::ConcurrentIndex;
use bftree_bench::{run_mixed_parallel, run_probes_parallel};
use bftree_storage::tuple::PK_OFFSET;
use bftree_storage::{
    Duplicates, HeapFile, IoContext, PageId, Relation, StorageConfig, TupleLayout,
};
use bftree_workloads::{mixed_streams, popular_probe_streams, KeyPopularity, OpMix};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A relation ordered on its primary key, and a BF-Tree over it.
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for pk in 0..200_000u64 {
        heap.append_record(pk, pk / 11);
    }
    let mut relation = Relation::new(heap, PK_OFFSET, Duplicates::Unique)?;
    let tree = BfTree::builder().fpp(1e-4).build(&relation)?;
    let index: &dyn AccessMethod = &tree;

    // 1+2. Eight workers probe the shared index, each with its own
    // Zipfian-skewed key stream, all charging one shared IoContext.
    let domain: Vec<u64> = (0..relation.heap().tuple_count()).collect();
    let streams = popular_probe_streams(
        &domain,
        KeyPopularity::Zipfian { theta: 0.99 },
        5_000,
        8,
        42,
    );
    let io = IoContext::cold(StorageConfig::SsdSsd);
    let r = run_probes_parallel(index, &relation, &streams, &io);
    println!(
        "parallel probes: {} ops on {} threads, {:.0} ops/s (simulated), \
         p50 {:.1} us, p99 {:.1} us, hit rate {:.2}",
        r.total_ops,
        r.threads,
        r.throughput_ops_per_sec(),
        r.latencies.quantile_ns(0.5) as f64 / 1e3,
        r.latencies.quantile_ns(0.99) as f64 / 1e3,
        r.hit_rate(),
    );

    // 3. Mixed read/insert (YCSB-B: 95 % reads): the load phase
    // appends the new tuples to the heap, the run phase registers them
    // in the index (write lock) while probes share the read lock.
    let insert_keys: Vec<u64> = (1_000_000..1_000_400u64).collect();
    let locs: HashMap<u64, (PageId, usize)> = insert_keys
        .iter()
        .map(|&k| (k, relation.append_tuple(k, k, &IoContext::unmetered())))
        .collect();
    let shared = ConcurrentIndex::new(tree);
    let streams = mixed_streams(
        &domain,
        KeyPopularity::Zipfian { theta: 0.99 },
        OpMix::YCSB_B,
        &insert_keys,
        &[],
        2_000,
        4,
        7,
    );
    let io = IoContext::cold(StorageConfig::SsdSsd);
    let r = run_mixed_parallel(&shared, &relation, &streams, &io, &|k| locs[&k]);
    let inserted: u64 = r.per_thread.iter().map(|t| t.inserts).sum();
    println!(
        "mixed YCSB-B: {} ops ({} inserts) on {} threads, {:.0} ops/s (simulated)",
        r.total_ops,
        inserted,
        r.threads,
        r.throughput_ops_per_sec(),
    );

    // Every concurrently inserted key is now visible.
    let io = IoContext::unmetered();
    for &k in &insert_keys {
        assert!(shared.probe(k, &relation, &io)?.found(), "key {k} lost");
    }
    println!(
        "all {} inserted keys visible after the run",
        insert_keys.len()
    );
    Ok(())
}
