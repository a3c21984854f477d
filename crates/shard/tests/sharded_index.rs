//! End-to-end checks of the sharded serving data plane against a
//! direct (unsharded) oracle: routing, batches split across shards,
//! cross-shard range pagination, durable write routing, and the
//! shared-budget I/O fleet.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use bftree::BfTree;
use bftree_access::{
    AccessMethod, BuildError, Continuation, DurableConfig, IndexStats, MatchSink, ProbeError,
    ProbeIo, RangeCursor,
};
use bftree_btree::{BPlusTree, BTreeConfig};
use bftree_obs::MetricsRegistry;
use bftree_shard::{ShardError, ShardPlan, ShardedContinuation, ShardedIndex, ShardedIo};
use bftree_storage::tuple::PK_OFFSET;
use bftree_storage::{
    Backend, DeviceKind, Duplicates, HeapFile, IoContext, PageDevice, PageId, PolicyKind, Relation,
    ScratchDir, StorageConfig, TupleLayout,
};
use bftree_wal::DurabilityMode;
use bftree_workloads::popularity::KeySampler;
use bftree_workloads::{mixed_stream, KeyPopularity, Op, OpMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: u64 = 4_000;

fn relation() -> Relation {
    let mut heap = HeapFile::new(TupleLayout::new(128));
    for pk in 0..N {
        heap.append_record(pk, pk * 10);
    }
    Relation::new(heap, PK_OFFSET, Duplicates::Unique).expect("conventional layout")
}

fn durable() -> DurableConfig {
    DurableConfig {
        flush_batch: 8,
        durability: DurabilityMode::GroupCommit {
            max_records: 4,
            max_bytes: 4 * 1024,
        },
    }
}

fn bf_tree(rel: &Relation) -> Box<dyn AccessMethod> {
    Box::new(
        BfTree::builder()
            .fpp(1e-4)
            .empty(rel)
            .expect("valid config"),
    )
}

/// A built index over `factory`'s inner indexes, with sim WAL devices.
fn sharded_over(
    rel: &Relation,
    shards: usize,
    factory: impl FnMut(usize) -> Box<dyn AccessMethod>,
) -> ShardedIndex {
    let plan = ShardPlan::uniform(N, shards);
    let mut index = ShardedIndex::new(plan, rel, durable(), factory, |_| {
        PageDevice::cold(DeviceKind::Ssd)
    });
    index.build(rel).expect("sharded build");
    index
}

/// A built index over BF-Trees.
fn sharded(rel: &Relation, shards: usize) -> ShardedIndex {
    sharded_over(rel, shards, |_| bf_tree(rel))
}

fn brute_range(rel: &Relation, lo: u64, hi: u64) -> Vec<(PageId, usize)> {
    let mut v: Vec<(PageId, usize)> = rel
        .heap()
        .iter_attr(rel.attr())
        .filter(|&(_, _, k)| k >= lo && k <= hi)
        .map(|(pid, slot, _)| (pid, slot))
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn probes_match_an_unsharded_oracle() {
    let rel = relation();
    let index = sharded(&rel, 4);
    let mut oracle = BPlusTree::new(BTreeConfig::paper_default());
    oracle.build(&rel).expect("oracle build");
    let io = IoContext::unmetered();
    for key in [0, 1, 999, 1000, 2999, 3000, N - 1, N, N + 500] {
        let mut got = index.probe(key, &rel, &io).expect("probe").matches;
        let mut want = oracle.probe(key, &rel, &io).expect("oracle").matches;
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "probe({key})");
    }
}

#[test]
fn routed_batch_preserves_input_order() {
    let rel = relation();
    let index = sharded(&rel, 4);
    let io = IoContext::unmetered();
    // Keys deliberately unsorted and crossing every shard boundary,
    // with misses sprinkled in.
    let keys: Vec<u64> = vec![3999, 0, 1000, 999, 2500, N + 7, 1, 3000, 42, 2999];
    let batch = index.probe_batch(&keys, &rel, &io).expect("batch");
    assert_eq!(batch.len(), keys.len());
    for (i, &key) in keys.iter().enumerate() {
        let single = index.probe(key, &rel, &io).expect("probe");
        assert_eq!(
            batch[i].matches, single.matches,
            "batch[{i}] (key {key}) must equal the per-key probe"
        );
    }
}

#[test]
fn range_scan_stitches_across_shard_boundaries() {
    let rel = relation();
    let index = sharded(&rel, 4);
    let io = IoContext::unmetered();
    // Spans all four shards.
    let (lo, hi) = (500, 3500);
    let mut got = index.range_scan(lo, hi, &rel, &io).expect("scan").matches;
    got.sort_unstable();
    assert_eq!(got, brute_range(&rel, lo, hi));
}

#[test]
fn pagination_is_lossless_across_shard_boundaries() {
    let rel = relation();
    let index = sharded(&rel, 4);
    let io = IoContext::unmetered();
    let ios: Vec<IoContext> = (0..4).map(|_| IoContext::unmetered()).collect();
    let (lo, hi) = (500, 3500);
    let expect = brute_range(&rel, lo, hi);

    // Several page sizes, including 1 and sizes straddling heap pages.
    for limit in [1u64, 7, 64, 1000] {
        let mut delivered: Vec<(PageId, usize)> = Vec::new();
        let mut token: Option<ShardedContinuation> = None;
        let mut pages = 0;
        loop {
            let (page, next, _io) = index
                .range_page(lo, hi, limit, token.as_ref(), &rel, &ios)
                .expect("range page");
            assert!(
                page.len() as u64 <= limit,
                "limit {limit}: page of {} matches",
                page.len()
            );
            delivered.extend(page);
            pages += 1;
            assert!(
                pages <= expect.len() + 8,
                "limit {limit}: pagination does not terminate"
            );
            match next {
                Some(t) => {
                    // Round-trip the token through its wire form, as a
                    // real client would.
                    token = Some(ShardedContinuation::decode(&t.encode()).expect("token survives"));
                }
                None => break,
            }
        }
        let mut got = delivered.clone();
        got.sort_unstable();
        assert_eq!(got, expect, "limit {limit}: lost or duplicated matches");
        assert_eq!(
            delivered.len(),
            expect.len(),
            "limit {limit}: re-delivered a consumed page"
        );
        let _ = io;
    }
}

#[test]
fn foreign_layout_tokens_are_rejected_typed() {
    let rel = relation();
    let four = sharded(&rel, 4);
    let two = sharded(&rel, 2);
    let ios2: Vec<IoContext> = (0..2).map(|_| IoContext::unmetered()).collect();
    let ios4: Vec<IoContext> = (0..4).map(|_| IoContext::unmetered()).collect();

    let (_, token, _) = four
        .range_page(0, N - 1, 5, None, &rel, &ios4)
        .expect("first page");
    let token = token.expect("mid-scan token");
    match two.range_page(0, N - 1, 5, Some(&token), &rel, &ios2) {
        Err(ShardError::LayoutMismatch {
            expected_shards: 2,
            got_shards: 4,
        }) => {}
        other => panic!("expected LayoutMismatch, got {other:?}"),
    }
}

#[test]
fn writes_route_to_their_owning_shard_and_read_back() {
    let mut rel = relation();
    let mut index = sharded(&rel, 4);
    let io = IoContext::unmetered();

    // Fresh keys, enough of them for the owning shard to drain its
    // memtable mid-loop (the flush batch is 8).
    let fresh: Vec<u64> = (0..12).map(|i| N + 1 + 400 * i).collect();
    let mut acked = Vec::new();
    for &key in &fresh {
        let loc = rel.append_tuple(key, key * 10, &io);
        index.insert(key, loc, &rel).expect("insert");
        let got = index.probe(key, &rel, &io).expect("probe").matches;
        assert_eq!(got, vec![loc], "inserted key {key} reads back");
        acked.push((key, loc));
    }

    // Deletes land on the right shard too.
    let deleted = [3, 1003, 2003, 3003];
    for key in deleted {
        assert_eq!(index.delete(key, &rel).expect("delete"), 1);
        assert!(
            !index.probe(key, &rel, &io).expect("probe").found(),
            "deleted key {key} still visible"
        );
    }

    // After every shard drains into its base index the merged view
    // answers the same: acked inserts found, deleted keys gone.
    index.flush_all(&rel).expect("final drain");
    for (key, loc) in acked {
        let got = index.probe(key, &rel, &io).expect("probe").matches;
        assert_eq!(got, vec![loc], "inserted key {key} lost in the drain");
    }
    for key in deleted {
        assert!(
            !index.probe(key, &rel, &io).expect("probe").found(),
            "deleted key {key} came back in the drain"
        );
    }
}

#[test]
fn shard_clocks_accumulate_and_reset() {
    let rel = relation();
    let index = sharded(&rel, 4);
    // Metered I/O so probes cost simulated time.
    let io = IoContext::cold(StorageConfig::SsdHdd);
    let keys: Vec<u64> = (0..200).map(|i| (i * 97) % N).collect();
    index.probe_batch(&keys, &rel, &io).expect("batch");
    assert!(index.makespan_sim_ns() > 0, "probes must cost sim time");
    assert!(index.total_sim_ns() >= index.makespan_sim_ns());
    index.reset_shard_clocks();
    assert_eq!(index.makespan_sim_ns(), 0);
}

#[test]
fn sharded_io_fleet_shares_one_budget() {
    let tmp = ScratchDir::new("sharded-io").expect("scratch dir");
    let backend = Backend::file(tmp.path());
    let fleet = ShardedIo::new(&backend, StorageConfig::SsdHdd, 1 << 20, PolicyKind::Lru, 4)
        .expect("fleet materializes");
    assert_eq!(fleet.shards(), 4);
    assert_eq!(fleet.buffer_stats().reserved_bytes, 0);
    // Every context draws from the one manager the fleet holds.
    for io in fleet.ios() {
        let manager = io.buffer_manager().expect("a shared-budget context");
        assert!(Arc::ptr_eq(manager, fleet.manager()));
    }
    // A carve-out through shard 1's context is a fleet-wide carve-out.
    let remaining = fleet.io(1).reserve_index_footprint(4096);
    assert_eq!(remaining, (1 << 20) - 4096);
    assert_eq!(fleet.buffer_stats().reserved_bytes, 4096);
    // Dissolving the fleet keeps the one budget.
    let manager = Arc::clone(fleet.manager());
    let ios = fleet.into_ios();
    assert_eq!(ios.len(), 4);
    for io in &ios {
        assert!(Arc::ptr_eq(io.buffer_manager().expect("shared"), &manager));
    }
}

/// Routing a batch must charge exactly what probing its keys one by
/// one charges: same answers, same per-shard simulated clocks, same
/// per-shard probe counters, same per-shard device counters.
#[test]
fn a_routed_batch_charges_exactly_what_a_scalar_loop_charges() {
    let rel = relation();
    let (batched, scalar) = (sharded(&rel, 4), sharded(&rel, 4));
    let fleet = || -> Vec<IoContext> {
        (0..4)
            .map(|_| IoContext::cold(StorageConfig::SsdHdd))
            .collect()
    };
    let (ios_batched, ios_scalar) = (fleet(), fleet());
    let probes_of = |index: &ShardedIndex, s: usize| {
        let mut reg = MetricsRegistry::new();
        reg.collect_from(index);
        reg.value("bftree_shard_probes_total", &[("shard", &s.to_string())])
            .expect("per-shard probe counter")
    };

    let shapes: [(&str, Vec<u64>); 7] = [
        ("empty", vec![]),
        ("one key", vec![2500]),
        ("all in one shard", vec![1999, 1000, 1500, 1001]),
        (
            "spanning every shard",
            vec![3999, 0, 1000, 999, 2500, 1, 3000, 2999],
        ),
        ("duplicate keys", vec![42, 3000, 42, 42, 3000]),
        ("above the last bound", vec![N, N + 7, u64::MAX]),
        ("absent keys among present", vec![N + 1, 17, N + 900, 2017]),
    ];
    for (shape, keys) in &shapes {
        let got = batched
            .probe_batch_sharded(keys, &rel, &ios_batched)
            .expect("routed batch");
        let want: Vec<_> = keys
            .iter()
            .map(|&key| {
                let io = &ios_scalar[scalar.plan().shard_of(key)];
                scalar.probe(key, &rel, io).expect("scalar probe")
            })
            .collect();
        assert_eq!(got, want, "{shape}: answers");
        for s in 0..4 {
            assert_eq!(
                batched.shard_sim_ns(s),
                scalar.shard_sim_ns(s),
                "{shape}: shard {s} clock"
            );
            assert_eq!(
                probes_of(&batched, s),
                probes_of(&scalar, s),
                "{shape}: shard {s} probe counter"
            );
            assert_eq!(
                ios_batched[s].snapshot_total(),
                ios_scalar[s].snapshot_total(),
                "{shape}: shard {s} device counters"
            );
        }
    }
    assert!(batched.makespan_sim_ns() > 0, "the probes cost sim time");
    assert_eq!(probes_of(&batched, 0), 7.0, "shard 0 served 7 of the keys");
}

/// The router starts no threads; its callers are the parallelism.
/// Four readers route mixed-shard batches while a writer routes fresh
/// ordered keys, under the same relation lock discipline the server
/// uses: every base-key answer equals the oracle, and every acked
/// insert is visible afterwards.
#[test]
fn concurrent_callers_route_batches_while_a_writer_inserts() {
    const FRESH: u64 = 300;
    let rel = relation();
    let index = sharded(&rel, 4);
    let oracle: HashMap<u64, (PageId, usize)> = rel
        .heap()
        .iter_attr(rel.attr())
        .map(|(pid, slot, key)| (key, (pid, slot)))
        .collect();
    let rel = RwLock::new(rel);
    let ios: Vec<IoContext> = (0..4).map(|_| IoContext::unmetered()).collect();
    let writer_done = AtomicBool::new(false);

    let acked = std::thread::scope(|scope| {
        for t in 0..4u64 {
            let (index, rel, ios, oracle, writer_done) =
                (&index, &rel, &ios, &oracle, &writer_done);
            scope.spawn(move || {
                let mut round = t;
                // At least a few rounds even if the writer wins the race.
                while round < t + 40 || !writer_done.load(Ordering::Acquire) {
                    // 16 keys striding across all four shards.
                    let keys: Vec<u64> = (0..16).map(|i| (round * 131 + i * 1009) % N).collect();
                    let got = index
                        .probe_batch_sharded(&keys, &rel.read().unwrap(), ios)
                        .expect("routed batch");
                    for (key, probe) in keys.iter().zip(&got) {
                        assert_eq!(probe.matches, vec![oracle[key]], "key {key}");
                    }
                    round += 4;
                }
            });
        }
        let writer = scope.spawn(|| {
            let acked: Vec<(u64, (PageId, usize))> = (0..FRESH)
                .map(|i| {
                    let key = N + i;
                    let mut rel = rel.write().unwrap();
                    let loc = rel.append_tuple(key, key * 10, &ios[3]);
                    index.route_insert(key, loc, &rel).expect("insert");
                    (key, loc)
                })
                .collect();
            writer_done.store(true, Ordering::Release);
            acked
        });
        writer.join().expect("writer")
    });

    let rel = rel.into_inner().unwrap();
    let keys: Vec<u64> = acked.iter().map(|&(key, _)| key).collect();
    let got = index
        .probe_batch_sharded(&keys, &rel, &ios)
        .expect("read back");
    for ((key, loc), probe) in acked.iter().zip(&got) {
        assert_eq!(probe.matches, vec![*loc], "acked insert {key} is visible");
    }
}

/// An inner index that panics when probed for one key.
struct PanicsOn {
    poison: u64,
    inner: Box<dyn AccessMethod>,
}

impl AccessMethod for PanicsOn {
    fn name(&self) -> &'static str {
        "panics-on"
    }
    fn build(&mut self, rel: &Relation) -> Result<(), BuildError> {
        self.inner.build(rel)
    }
    fn probe_into(
        &self,
        key: u64,
        rel: &Relation,
        io: &IoContext,
        sink: &mut dyn MatchSink,
    ) -> Result<ProbeIo, ProbeError> {
        assert_ne!(key, self.poison, "inner index exploded");
        self.inner.probe_into(key, rel, io, sink)
    }
    fn range_cursor<'c>(
        &'c self,
        lo: u64,
        hi: u64,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Result<Box<dyn RangeCursor + 'c>, ProbeError> {
        self.inner.range_cursor(lo, hi, rel, io)
    }
    fn resume_range_cursor<'c>(
        &'c self,
        cont: &Continuation,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Result<Box<dyn RangeCursor + 'c>, ProbeError> {
        self.inner.resume_range_cursor(cont, rel, io)
    }
    fn insert(&mut self, key: u64, loc: (PageId, usize), rel: &Relation) -> Result<(), ProbeError> {
        self.inner.insert(key, loc, rel)
    }
    fn delete(&mut self, key: u64, rel: &Relation) -> Result<u64, ProbeError> {
        self.inner.delete(key, rel)
    }
    fn size_bytes(&self) -> u64 {
        self.inner.size_bytes()
    }
    fn stats(&self) -> IndexStats {
        self.inner.stats()
    }
}

/// A panic in one shard's probe unwinds through the caller — there is
/// no other thread for it to happen on — and the index keeps serving:
/// read guards do not poison.
#[test]
fn a_panicking_shard_unwinds_to_the_caller_and_the_index_keeps_serving() {
    const POISON: u64 = 1500;
    let rel = relation();
    let index = sharded_over(&rel, 4, |_| {
        Box::new(PanicsOn {
            poison: POISON,
            inner: bf_tree(&rel),
        })
    });
    let ios: Vec<IoContext> = (0..4).map(|_| IoContext::unmetered()).collect();

    let blown = catch_unwind(AssertUnwindSafe(|| {
        index.probe_batch_sharded(&[7, POISON, 3000], &rel, &ios)
    }));
    assert!(blown.is_err(), "the panic reaches the caller");

    // Same shards, poisoned one included, answer the next batch.
    let got = index
        .probe_batch_sharded(&[7, POISON + 1, 3000], &rel, &ios)
        .expect("next batch");
    assert!(got.iter().all(|p| p.matches.len() == 1));
}

/// The serving setting of the retired `serve_scale` experiment, in
/// process: a relation of `keys` even PKs (odd keys stay free for the
/// stream's inserts), BF-Tree shards under group commit with one
/// simulated SSD log each, and a fleet of SSD/SSD devices behind one
/// shared 64 MB LRU budget.
fn serving_fleet(rel: &Relation, plan: ShardPlan) -> (ShardedIndex, Vec<IoContext>) {
    let shards = plan.shards();
    let config = DurableConfig {
        flush_batch: 256,
        durability: DurabilityMode::GroupCommit {
            max_records: 32,
            max_bytes: 32 * 1024,
        },
    };
    let mut index = ShardedIndex::new(
        plan,
        rel,
        config,
        |_| bf_tree(rel),
        |_| PageDevice::cold(DeviceKind::Ssd),
    );
    index.build(rel).expect("sharded build");
    let ios = ShardedIo::new(
        &Backend::Sim,
        StorageConfig::SsdSsd,
        64 << 20,
        PolicyKind::Lru,
        shards,
    )
    .expect("shard I/O fleet")
    .into_ios();
    (index, ios)
}

/// Serve `ops` the way one closed-loop client drives the server:
/// probes pipelined in 16-key batches, each insert on its own (append
/// to the owning shard's data device, then route). Every probe must
/// find its key. Returns the bottleneck shard's simulated clock.
fn serve(index: &ShardedIndex, ios: &[IoContext], rel: &mut Relation, ops: &[Op]) -> u64 {
    let flush = |batch: &mut Vec<u64>, rel: &Relation| {
        for probe in index
            .probe_batch_sharded(batch, rel, ios)
            .expect("routed batch")
        {
            assert!(probe.found(), "a probe of a base key missed");
        }
        batch.clear();
    };
    let mut batch = Vec::with_capacity(16);
    for op in ops {
        match *op {
            Op::Probe(key) => {
                batch.push(key);
                if batch.len() == 16 {
                    flush(&mut batch, rel);
                }
            }
            Op::Insert(key) => {
                flush(&mut batch, rel);
                let loc = rel.append_tuple(key, key * 10, &ios[index.plan().shard_of(key)]);
                index.route_insert(key, loc, rel).expect("insert");
            }
            Op::Delete(_) => unreachable!("YCSB-B schedules no deletes"),
        }
    }
    flush(&mut batch, rel);
    index.makespan_sim_ns()
}

/// The sharding claim: with one device channel per shard, eight
/// shards serve a YCSB-B stream (Zipfian probes, 5 % fresh inserts
/// spread over the key space) in under a third of one shard's
/// simulated time. The plan cuts at the quantiles of a cost-weighted
/// sample of the workload — an insert pays the shard log's write and
/// weighs as many probes as it costs — so the shards split simulated
/// *cost*, which is what the makespan rewards.
#[test]
fn eight_shards_cut_the_simulated_makespan_at_least_threefold() {
    const KEYS: u64 = 8_192;
    const OPS: usize = 9_600;
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for i in 0..KEYS {
        heap.append_record(2 * i, i);
    }
    let base = Relation::new(heap, PK_OFFSET, Duplicates::Unique).expect("conventional layout");
    let domain: Vec<u64> = (0..KEYS).map(|i| 2 * i).collect();
    let popularity = KeyPopularity::Zipfian { theta: 0.99 };
    let sampler = KeySampler::new(domain.len(), popularity);
    let odd_keys = |n: u64| (0..n).map(move |i| 2 * (i * KEYS / n) + 1);
    // One fresh key per scheduled write: YCSB-B writes 5 %.
    let fresh: Vec<u64> = odd_keys(OPS as u64 / 20).collect();
    let ops = mixed_stream(
        &domain,
        popularity,
        OpMix::YCSB_B,
        &fresh,
        &[],
        OPS,
        0xC11E27,
    );

    // What an insert weighs in warm probes, measured on a throwaway
    // single-shard stack.
    let cost_ratio = {
        let (index, ios) = serving_fleet(&base, ShardPlan::single());
        let mut rel = base.clone();
        let mut rng = StdRng::seed_from_u64(0xCA1B);
        let probes: Vec<Op> = (0..512)
            .map(|_| Op::Probe(domain[sampler.sample(&mut rng)]))
            .collect();
        serve(&index, &ios, &mut rel, &probes);
        index.reset_shard_clocks();
        let probe_ns = (serve(&index, &ios, &mut rel, &probes) / 512).max(1);
        index.reset_shard_clocks();
        let inserts: Vec<Op> = odd_keys(64).map(Op::Insert).collect();
        (serve(&index, &ios, &mut rel, &inserts) / 64 / probe_ns).max(1)
    };
    let plan = {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut sample: Vec<u64> = (0..4096)
            .map(|_| domain[sampler.sample(&mut rng)])
            .collect();
        let write_share = OpMix::YCSB_B.write_fraction() / OpMix::YCSB_B.read_fraction;
        sample.extend(odd_keys((4096.0 * write_share * cost_ratio as f64) as u64));
        sample.sort_unstable();
        ShardPlan::from_sample(&sample, 8)
    };
    assert_eq!(plan.shards(), 8, "the sample has eight distinct quantiles");

    let (index, ios) = serving_fleet(&base, ShardPlan::single());
    let one = serve(&index, &ios, &mut base.clone(), &ops);
    let (index, ios) = serving_fleet(&base, plan);
    let mut rel = base.clone();
    let eight = serve(&index, &ios, &mut rel, &ops);
    assert!(
        one as f64 / eight as f64 >= 3.0,
        "8 shards: {eight} ns against {one} ns on one"
    );
    // Simulated clocks repeat to the nanosecond on any host.
    assert_eq!((one, eight), (20_820_900, 2_550_400));

    // The write half of the stream, through the merged view: after
    // every shard drains its memtable each acked insert still answers.
    index.flush_all(&rel).expect("final drain");
    let io = IoContext::unmetered();
    for &key in &fresh {
        assert!(
            index.probe(key, &rel, &io).expect("probe").found(),
            "acked insert {key} lost in the drain"
        );
    }
}
