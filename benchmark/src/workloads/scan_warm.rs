//! `scan_warm`: in-process reads through `ConcurrentIndex<BfTree>`
//! from two threads against one shared LRU `BufferManager` an eighth
//! the size of the data (**larger than cache**).
//!
//! Why it exists: `bufferpool` (`touch`, eviction under the shard
//! mutexes) and the warm `SimDevice` path do most of the work, two
//! threads make lock waiting visible, and the scalar sink path and the
//! range cursor — different code from `probe_cold`'s batched pipeline
//! — are covered. p50 sits in the probes, p99 in the scans (the top
//! 10 % of requests).

use std::sync::Barrier;
use std::time::Instant;

use bftree::BfTree;
use bftree_access::{AccessMethod, ConcurrentIndex, RangeCursor};
use bftree_bufferpool::{BufferManager, PolicyKind};
use bftree_storage::{IoContext, Relation, StorageConfig, PAGE_SIZE};

use super::{Closure, RepOutcome, RunCfg, Timed, Workload, FPP, PROBE, RANGE};
use crate::gen::{self, Fingerprint, ScanOp, Zipfian, RANGE_SPAN, THETA};
use crate::ladder::{self, ProbePath};
use crate::oracle::{build_relation, Oracle, FULL_CHECK_EVERY};
use crate::report::{Check, Metrics};
use crate::stats::ratio;
use crate::trace::Recorder;

/// Base keys: 1 048 576 × 256 B = 256 MB.
const KEYS: u64 = 1 << 20;
/// Client threads (never more than `nproc`, 2 on the defining host).
const LANES: u64 = 2;
/// Requests per lane per rep, frozen (≈ 1 s at the defining commit).
const REP_REQUESTS: u64 = 60_000;
/// Requests the traced replay issues at most.
const TRACE_REQUESTS: usize = 20_000;

pub struct ScanWarm {
    seed: u64,
    rep_requests: usize,
    rel: Relation,
    /// The index under test, and a direct copy for the ladder's lower
    /// rungs (the wrapper owns its tree).
    index: ConcurrentIndex<BfTree>,
    direct: BfTree,
    io: IoContext,
    budget_bytes: u64,
    zipf: Zipfian,
    oracle: Oracle,
    fp: Fingerprint,
    build_s: f64,
}

fn range_bounds(start: u64) -> (u64, u64) {
    (2 * start, 2 * (start + RANGE_SPAN - 1))
}

impl ScanWarm {
    /// One lane's closed loop over `ops`.
    fn issue(&self, ops: &[ScanOp], start: &Barrier) -> RepOutcome {
        let mut out = RepOutcome::default();
        out.lat_ns[PROBE].reserve(ops.len());
        out.lat_ns[RANGE].reserve(ops.len() / 8);
        start.wait();
        let window = Instant::now();
        for (r, op) in ops.iter().enumerate() {
            let full = (r as u64).is_multiple_of(FULL_CHECK_EVERY);
            match *op {
                ScanOp::Probe(key) => {
                    let t = Instant::now();
                    let answer = self.index.probe(key, &self.rel, &self.io);
                    out.lat_ns[PROBE].push(t.elapsed().as_nanos() as u64);
                    out.check.attempted += 1;
                    match answer {
                        Ok(p) => {
                            out.ops += 1;
                            out.check.failed +=
                                u64::from(!self.oracle.probe_ok(key, &p.matches, full));
                        }
                        Err(_) => {
                            out.errors += 1;
                            out.check.failed += 1;
                        }
                    }
                }
                ScanOp::Range(first) => {
                    let (lo, hi) = range_bounds(first);
                    let pages = self.oracle.pages_spanned(first, RANGE_SPAN);
                    let t = Instant::now();
                    let answer = self.index.range_scan(lo, hi, &self.rel, &self.io);
                    out.lat_ns[RANGE].push(t.elapsed().as_nanos() as u64);
                    out.check.attempted += pages;
                    match answer {
                        Ok(scan) => {
                            out.ops += pages;
                            let ok = self.oracle.range_ok(first, RANGE_SPAN, &scan.matches, full);
                            out.check.failed += if ok { 0 } else { pages };
                        }
                        Err(_) => {
                            out.errors += 1;
                            out.check.failed += pages;
                        }
                    }
                }
            }
        }
        out.wall_ns = window.elapsed().as_nanos() as u64;
        bftree_obs::flush_thread();
        out
    }
}

impl Workload for ScanWarm {
    const NAME: &'static str = "scan_warm";

    fn setup(cfg: &RunCfg) -> Self {
        let rel = build_relation(cfg.base_keys(KEYS, 4_096));
        let t = Instant::now();
        let direct = BfTree::builder()
            .fpp(FPP)
            .build(&rel)
            .expect("valid config");
        let build_s = t.elapsed().as_secs_f64();
        let budget_bytes = (rel.heap().byte_size() + direct.size_bytes()) / 8;
        let oracle = Oracle::new(&rel);
        Self {
            seed: cfg.seed,
            rep_requests: cfg.scaled(REP_REQUESTS, 512) as usize,
            zipf: Zipfian::new(oracle.n_base(), THETA),
            io: IoContext::with_shared_budget(StorageConfig::SsdSsd, budget_bytes, PolicyKind::Lru),
            index: ConcurrentIndex::new(direct.clone()),
            direct,
            budget_bytes,
            rel,
            oracle,
            fp: Fingerprint::default(),
            build_s,
        }
    }

    fn rep(&mut self, rep: u64) -> RepOutcome {
        let n = self.oracle.n_base();
        let lanes: Vec<Vec<ScanOp>> = (0..LANES)
            .map(|lane| {
                gen::scan_ops(
                    self.seed,
                    lane,
                    rep,
                    n,
                    self.rep_requests,
                    &self.zipf,
                    &mut self.fp,
                )
            })
            .collect();
        let start = Barrier::new(lanes.len());
        let this = &*self;
        let outcomes: Vec<RepOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = lanes
                .iter()
                .map(|ops| {
                    let start = &start;
                    s.spawn(move || this.issue(ops, start))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lane panicked"))
                .collect()
        });
        let mut merged = RepOutcome::default();
        for o in outcomes {
            merged.merge(o);
        }
        merged
    }

    fn sim_ns(&self) -> u64 {
        self.io.snapshot_total().sim_ns
    }

    fn index_bytes(&self) -> u64 {
        self.index.size_bytes()
    }

    fn live_keys(&self) -> u64 {
        self.oracle.live_keys()
    }

    fn fingerprint(&self) -> u64 {
        self.fp.0
    }

    fn verify(&mut self, _layers: &mut Metrics) -> Check {
        let io = IoContext::unmetered();
        let mut check = Check::default();
        for key in self.oracle.verify_sample(self.seed) {
            for key in [key, key + 1] {
                check.attempted += 1;
                let ok = self
                    .index
                    .probe(key, &self.rel, &io)
                    .is_ok_and(|p| self.oracle.probe_ok(key, &p.matches, true));
                check.failed += u64::from(!ok);
            }
        }
        // Range answers against the oracle, at the domain's two ends
        // and across it.
        let n = self.oracle.n_base();
        for first in [0, n / 3, n - RANGE_SPAN] {
            let (lo, hi) = range_bounds(first);
            check.attempted += 1;
            let ok = self
                .index
                .range_scan(lo, hi, &self.rel, &io)
                .is_ok_and(|s| self.oracle.range_ok(first, RANGE_SPAN, &s.matches, true));
            check.failed += u64::from(!ok);
        }
        check
    }

    fn trace(&mut self, rec: &mut Recorder, layers: &mut Metrics, _timed: &Timed) -> Closure {
        let mut scratch_fp = Fingerprint::default();
        let count = (self.rep_requests / 5).clamp(64, TRACE_REQUESTS);
        let n_base = self.oracle.n_base();
        let ops = gen::scan_ops(self.seed, 0, 1, n_base, count, &self.zipf, &mut scratch_fp);
        let (rel, io) = (&self.rel, &self.io);

        // Top rung: the wrapper the workload calls.
        let pool_before = io.buffer_stats().unwrap_or_default();
        let dev_before = io.snapshot_total();
        let (mut top_probe_ns, mut top_range_ns) = (0u64, 0u64);
        let (mut probes, mut logical_ops, mut false_reads) = (0u64, 0u64, 0u64);
        let (mut scan_pages, mut scan_rows) = (0u64, 0u64);
        for (r, op) in ops.iter().enumerate() {
            rec.set_request(r as u64);
            match *op {
                ScanOp::Probe(key) => {
                    let (p, ns) = rec.span("access.concurrent.probe", |_| {
                        self.index.probe(key, rel, io).expect("valid")
                    });
                    top_probe_ns += ns;
                    probes += 1;
                    logical_ops += 1;
                    false_reads += p.false_reads;
                }
                ScanOp::Range(first) => {
                    let (lo, hi) = range_bounds(first);
                    let (scan, ns) = rec.span("access.concurrent.range_scan", |_| {
                        self.index.range_scan(lo, hi, rel, io).expect("valid")
                    });
                    top_range_ns += ns;
                    logical_ops += self.oracle.pages_spanned(first, RANGE_SPAN);
                    scan_pages += scan.pages_read;
                    scan_rows += scan.matches.len() as u64;
                }
            }
        }
        let pool = io.buffer_stats().unwrap_or_default();
        let dev = io.snapshot_total().since(&dev_before);
        // Rung 2: the same requests on the tree itself. The replay
        // touches ten times the cache's pages, so this pass meets the
        // same steady-state cache the top rung did.
        let (mut direct_probe_ns, mut direct_range_ns) = (0u64, 0u64);
        for (r, op) in ops.iter().enumerate() {
            rec.set_request(r as u64);
            match *op {
                ScanOp::Probe(key) => {
                    direct_probe_ns += rec
                        .span("core.probe", |_| {
                            AccessMethod::probe(&self.direct, key, rel, io).expect("valid")
                        })
                        .1;
                }
                ScanOp::Range(first) => {
                    let (lo, hi) = range_bounds(first);
                    direct_range_ns += rec
                        .span("core.range_scan", |_| {
                            AccessMethod::range_scan(&self.direct, lo, hi, rel, io).expect("valid")
                        })
                        .1;
                }
            }
        }
        let per_op = |v: u64| ratio(v as f64, logical_ops as f64);
        layers.set(
            "bufferpool.hit_rate",
            ratio(
                (pool.hits - pool_before.hits) as f64,
                (pool.hits + pool.misses - pool_before.hits - pool_before.misses) as f64,
            ),
        );
        layers.set(
            "bufferpool.misses_per_op",
            per_op(pool.misses - pool_before.misses),
        );
        layers.set(
            "bufferpool.evictions_per_op",
            per_op(pool.evictions - pool_before.evictions),
        );
        layers.set("storage.dev_reads_per_op", per_op(dev.device_reads()));
        layers.set("storage.dev_writes_per_op", per_op(dev.writes));
        layers.set("storage.cache_hit_rate", dev.cache_hit_rate());
        layers.set(
            "core.scan_pages_per_match",
            ratio(scan_pages as f64, scan_rows as f64),
        );
        layers.set(
            "core.probe_scalar_ns_per_key",
            ratio(direct_probe_ns as f64, probes as f64),
        );
        layers.set(
            "access.concurrent_self_ns_per_op",
            ratio(
                (top_probe_ns + top_range_ns) as f64 - (direct_probe_ns + direct_range_ns) as f64,
                ops.len() as f64,
            )
            .max(0.0),
        );

        // Cursor rungs over the range requests: the direct cursor's
        // page pull, and what the lock-holding wrapper adds to it.
        let (mut cursor_ns, mut conc_cursor_ns, mut cursor_pages) = (0u64, 0u64, 0u64);
        for (r, op) in ops.iter().enumerate() {
            let ScanOp::Range(first) = *op else { continue };
            let (lo, hi) = range_bounds(first);
            rec.set_request(r as u64);
            let (pages, ns) = rec.span("core.range_cursor", |_| {
                let mut cursor = self.direct.range_cursor(lo, hi, rel, io).expect("valid");
                let mut pages = 0u64;
                while let Some(page) = cursor.next_page_matches() {
                    std::hint::black_box(page);
                    pages += 1;
                    cursor.advance();
                }
                pages
            });
            cursor_ns += ns;
            cursor_pages += pages;
            conc_cursor_ns += rec
                .span("access.concurrent.range_cursor", |_| {
                    let mut cursor = self.index.range_cursor(lo, hi, rel, io).expect("valid");
                    while let Some(page) = cursor.next_page_matches() {
                        std::hint::black_box(page);
                        cursor.advance();
                    }
                })
                .1;
        }
        layers.set(
            "core.range_page_ns_per_page",
            ratio(cursor_ns as f64, cursor_pages as f64),
        );
        layers.set(
            "access.cursor_self_ns_per_page",
            ratio(
                conc_cursor_ns as f64 - cursor_ns as f64,
                cursor_pages as f64,
            )
            .max(0.0),
        );

        // Probe-path rungs over the probe keys, charging a stand-alone
        // shared-cache context of the same budget and policy.
        let keys: Vec<u64> = ops
            .iter()
            .filter_map(|op| match *op {
                ScanOp::Probe(key) => Some(key),
                ScanOp::Range(_) => None,
            })
            .collect();
        let warm = IoContext::with_shared_budget(
            StorageConfig::SsdSsd,
            self.budget_bytes,
            PolicyKind::Lru,
        );
        let st = ladder::probe_stages(
            rec,
            layers,
            &self.direct,
            rel,
            &keys,
            ProbePath::Scalar,
            |_| true,
            &warm.index,
            &warm.data,
        );
        layers.set(
            "storage.charge_warm_ns_per_read",
            ratio(st.charge_ns as f64, st.charges as f64),
        );
        let core_probe_self = direct_probe_ns as i64 - st.total_ns() as i64;
        layers.set(
            "core.probe_self_ns_per_key",
            ratio(core_probe_self.max(0) as f64, keys.len() as f64),
        );
        // Read counts of the probes alone, on a fresh warm context.
        let counted = IoContext::with_shared_budget(
            StorageConfig::SsdSsd,
            self.budget_bytes,
            PolicyKind::Lru,
        );
        for &key in &keys {
            let _ = std::hint::black_box(
                AccessMethod::probe(&self.direct, key, rel, &counted).expect("valid"),
            );
        }
        ladder::reads_per_probe(
            layers,
            counted.index.snapshot(),
            counted.data.snapshot(),
            false_reads,
            keys.len() as u64,
        );
        layers.set(
            "bloom.filter_probes_per_key",
            ladder::filter_probes_per_key(&self.direct, rel, &keys),
        );

        // bufferpool::touch on a stand-alone manager fed the data pages
        // of the same keys, from one thread and from two.
        let tpp = rel.heap().tuples_per_page() as u64;
        let page_ids: Vec<u64> = keys.iter().map(|k| k / 2 / tpp).collect();
        let touch_ns = |threads: usize| -> f64 {
            let manager = BufferManager::new(self.budget_bytes, PolicyKind::Lru);
            let pool = manager.register_pool("data");
            let start = Barrier::new(threads);
            let lane_ns: Vec<u64> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let (manager, page_ids, start) = (&manager, &page_ids, &start);
                        s.spawn(move || {
                            start.wait();
                            let t = Instant::now();
                            for &pid in page_ids {
                                std::hint::black_box(manager.touch(pool, pid, PAGE_SIZE as u64));
                            }
                            t.elapsed().as_nanos() as u64
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("toucher"))
                    .collect()
            });
            ratio(
                lane_ns.iter().sum::<u64>() as f64 / threads as f64,
                page_ids.len() as f64,
            )
        };
        let one = touch_ns(1);
        layers.set("bufferpool.touch_ns_per_access", one);
        layers.set("bufferpool.contention_ratio", ratio(touch_ns(2), one));

        layers.set("core.build_s", self.build_s);
        layers.set("core.index_bytes", self.direct.size_bytes() as f64);
        layers.set("core.leaf_fpp_after", ladder::mean_leaf_fpp(&self.direct));

        let mut closure = Closure {
            top_ns: top_probe_ns + top_range_ns,
            ..Closure::default()
        };
        closure.part(
            "access (ConcurrentIndex self)",
            (top_probe_ns + top_range_ns) as i64 - (direct_probe_ns + direct_range_ns) as i64,
        );
        closure.part("core (range scan, charges in)", direct_range_ns as i64);
        closure.part("core (scalar probe self)", core_probe_self);
        closure.part("bloom (hash + sweep)", (st.hash_ns + st.sweep_ns) as i64);
        closure.part("btree (upper descent)", st.descent_ns as i64);
        closure.part("storage (heap scan)", st.heap_ns as i64);
        closure.part("storage+bufferpool (charge)", st.charge_ns as i64);
        closure
    }
}
