//! Rungs of the per-layer ladder that more than one workload descends.
//!
//! The probe path of every workload ends in the same five public
//! calls — hash, upper descent, filter sweep, heap-page scan, device
//! charge — so they are measured here, over the workload's own keys
//! and structures. Each rung is one pass over all requests (not
//! request by request), so a rung meets the same cold caches the real
//! request does instead of the lines the rung before it just touched.

use bftree::{BfLeaf, BfTree};
use bftree_access::AccessMethod;
use bftree_bloom::hash::KeyFingerprint;
use bftree_bloom::BloomGroup;
use bftree_btree::{BPlusTree, BTreeConfig, DuplicateMode, TupleRef};
use bftree_fdtree::FdTree;
use bftree_hashindex::HashIndex;
use bftree_model::{BfTreeModel, ModelParams};
use bftree_storage::{
    Backend, DeviceKind, IoContext, IoSnapshot, PageDevice, PageId, Relation, StorageConfig,
};
use bftree_wal::{DurabilityMode, Wal, WalRecord};
use std::hint::black_box;
use std::time::Instant;

use crate::report::Metrics;
use crate::stats::ratio;
use crate::trace::Recorder;

/// Keys one stage span covers: `probe_cold`'s batch size, which the
/// scalar workloads' keys are grouped into as well so that their
/// traces stay small.
pub const STAGE_CHUNK: usize = crate::gen::COLD_BATCH;

/// Which probe path the rungs mirror.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbePath {
    /// `probe_batch`: keys sorted per batch, `FloorCursor` descent,
    /// binary-search page scan.
    Batched,
    /// `probe`: one `search_le` per key, linear page scan.
    Scalar,
}

/// Wall nanoseconds of each probe-path rung over the same keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub keys: u64,
    pub hash_ns: u64,
    pub descent_ns: u64,
    pub sweep_ns: u64,
    pub heap_ns: u64,
    pub charge_ns: u64,
    pub heap_pages: u64,
    pub charges: u64,
}

impl StageTimes {
    pub fn total_ns(&self) -> u64 {
        self.hash_ns + self.descent_ns + self.sweep_ns + self.heap_ns + self.charge_ns
    }
}

/// BF-leaves in key order with the arena index of each — what the
/// benchmark binary-searches to find the leaf a key routes to (arena
/// order stops being key order once leaves split).
pub struct LeafRoute<'t> {
    tree: &'t BfTree,
    by_min_key: Vec<(u64, u32)>,
}

impl<'t> LeafRoute<'t> {
    pub fn new(tree: &'t BfTree) -> Self {
        let mut by_min_key: Vec<(u64, u32)> = tree
            .leaves()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.n_keys > 0)
            .map(|(i, l)| (l.min_key, i as u32))
            .collect();
        by_min_key.sort_unstable();
        Self { tree, by_min_key }
    }

    /// Arena index of the floor leaf of `key`.
    pub fn leaf_index(&self, key: u64) -> u32 {
        let at = self.by_min_key.partition_point(|&(min, _)| min <= key);
        self.by_min_key[at.saturating_sub(1)].1
    }

    /// A B+-Tree bulk-built over the BF-leaf minimum keys with the
    /// upper structure's own node geometry: the stand-in the descent
    /// rung searches (the BF-Tree's own upper tree is private).
    pub fn upper_stand_in(&self) -> BPlusTree {
        let c = self.tree.config();
        let config = BTreeConfig {
            page_size: c.page_size,
            key_size: c.key_size,
            ptr_size: c.ptr_size,
            fill_factor: 1.0,
            duplicates: DuplicateMode::PerTuple,
        };
        BPlusTree::bulk_build(
            config,
            self.by_min_key
                .iter()
                .map(|&(min, idx)| (min, TupleRef::new(u64::from(idx), 0))),
        )
    }
}

/// Descend the probe path's five rungs over `keys`, one pass per rung,
/// recording one span per rung per [`STAGE_CHUNK`] keys (request ids
/// count the chunks). `present(key)` says
/// whether the key is stored (only those pay a heap-page scan and a
/// data read); `idx_dev` / `data_dev` are the devices the charge rung
/// pays — cold stand-alone devices, or shared-cache ones for the warm
/// workloads.
#[allow(clippy::too_many_arguments)]
pub fn probe_stages(
    rec: &mut Recorder,
    layers: &mut Metrics,
    tree: &BfTree,
    rel: &Relation,
    keys: &[u64],
    path: ProbePath,
    present: impl Fn(u64) -> bool,
    idx_dev: &PageDevice,
    data_dev: &PageDevice,
) -> StageTimes {
    let route = LeafRoute::new(tree);
    let seed = tree.config().seed;
    let heap = rel.heap();
    let attr = rel.attr();
    let tpp = heap.tuples_per_page() as u64;
    let last_page = heap.page_count().saturating_sub(1);
    let mut st = StageTimes {
        keys: keys.len() as u64,
        ..StageTimes::default()
    };

    // Rung: hash.
    let mut fps: Vec<KeyFingerprint> = Vec::with_capacity(keys.len());
    for (r, batch) in keys.chunks(STAGE_CHUNK).enumerate() {
        rec.set_request(r as u64);
        let ((), ns) = rec.span("bloom.hash", |_| {
            fps.extend(
                batch
                    .iter()
                    .map(|k| KeyFingerprint::new(black_box(k), seed)),
            );
        });
        st.hash_ns += ns;
    }

    // Rung: upper descent (uncharged; the charge rung pays the reads).
    let upper = route.upper_stand_in();
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut sorted: Vec<u64> = Vec::with_capacity(STAGE_CHUNK);
    for (r, batch) in keys.chunks(STAGE_CHUNK).enumerate() {
        rec.set_request(r as u64);
        match path {
            ProbePath::Batched => {
                sorted.clear();
                sorted.extend_from_slice(batch);
                sorted.sort_unstable();
                let (cursor_counts, ns) = rec.span("btree.search_le", |_| {
                    let mut cursor = upper.floor_cursor();
                    for &key in &sorted {
                        black_box(cursor.search_le(key, None));
                    }
                    (cursor.hits(), cursor.misses())
                });
                hits += cursor_counts.0;
                misses += cursor_counts.1;
                st.descent_ns += ns;
            }
            ProbePath::Scalar => {
                let ((), ns) = rec.span("btree.search_le", |_| {
                    for &key in batch {
                        black_box(upper.search_le(key, None));
                    }
                });
                st.descent_ns += ns;
            }
        }
    }

    // Rung: filter sweep on the leaf each key routes to.
    let leaf_of: Vec<u32> = keys.iter().map(|&k| route.leaf_index(k)).collect();
    let (mut pages, mut buckets): (Vec<PageId>, Vec<usize>) = (Vec::new(), Vec::new());
    let mut swept = 0u64;
    for (r, batch) in keys.chunks(STAGE_CHUNK).enumerate() {
        rec.set_request(r as u64);
        let base = r * STAGE_CHUNK;
        let (n, ns) = rec.span("bloom.sweep", |_| {
            let mut n = 0u64;
            for (i, &key) in batch.iter().enumerate() {
                let leaf = tree.leaf(leaf_of[base + i]);
                if leaf.covers_key(key) {
                    pages.clear();
                    n += leaf.matching_pages_fp(&fps[base + i], &mut pages, &mut buckets);
                    black_box(&pages);
                }
            }
            n
        });
        swept += n;
        st.sweep_ns += ns;
    }

    // Rung: heap-page scan of each stored key's true page.
    let mut slots: Vec<usize> = Vec::new();
    for (r, batch) in keys.chunks(STAGE_CHUNK).enumerate() {
        rec.set_request(r as u64);
        let (n, ns) = rec.span("storage.heap_scan", |_| {
            let mut n = 0u64;
            for &key in batch {
                if !present(key) {
                    continue;
                }
                let pid = (key / 2 / tpp).min(last_page);
                slots.clear();
                match path {
                    ProbePath::Batched => heap.scan_sorted_page_for(pid, attr, key, &mut slots),
                    ProbePath::Scalar => heap.scan_page_for(pid, attr, key, &mut slots),
                };
                black_box(&slots);
                n += 1;
            }
            n
        });
        st.heap_pages += n;
        st.heap_ns += ns;
    }

    // Rung: device charge — per key the upper nodes, the BF-leaf page,
    // and (stored keys) the data page.
    let upper_reads = tree.height().saturating_sub(1) as u64;
    for (r, batch) in keys.chunks(STAGE_CHUNK).enumerate() {
        rec.set_request(r as u64);
        let base = r * STAGE_CHUNK;
        let (n, ns) = rec.span("storage.charge", |_| {
            let mut n = 0u64;
            for (i, &key) in batch.iter().enumerate() {
                for level in 0..upper_reads {
                    idx_dev.read_random(level);
                }
                idx_dev.read_random(BfTree::leaf_page_id(leaf_of[base + i]));
                n += upper_reads + 1;
                if present(key) {
                    data_dev.read_random((key / 2 / tpp).min(last_page));
                    n += 1;
                }
            }
            n
        });
        st.charges += n;
        st.charge_ns += ns;
    }

    let per_key = |ns: u64| ratio(ns as f64, st.keys as f64);
    layers.set("bloom.hash_ns_per_key", per_key(st.hash_ns));
    layers.set("btree.search_le_ns_per_key", per_key(st.descent_ns));
    layers.set(
        "btree.floor_cursor_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
    );
    layers.set("bloom.sweep_ns_per_key", per_key(st.sweep_ns));
    layers.set(
        "bloom.buckets_swept_per_key",
        ratio(swept as f64, st.keys as f64),
    );
    layers.set(
        "storage.heap_scan_ns_per_page",
        ratio(st.heap_ns as f64, st.heap_pages as f64),
    );
    st
}

/// `bloom.filter_probes_per_key` from the stack's own `OpCounters`
/// (they only count while its recorder is armed): probe a sample of
/// `keys` with recording on, then throw the spans away.
pub fn filter_probes_per_key(tree: &BfTree, rel: &Relation, keys: &[u64]) -> f64 {
    let sample = &keys[..keys.len().min(4_096)];
    let io = IoContext::unmetered();
    bftree_obs::set_recording(true);
    let before = bftree_obs::thread_op_counters();
    for batch in sample.chunks(STAGE_CHUNK) {
        black_box(tree.probe_batch(batch, rel, &io).expect("valid relation"));
    }
    let delta = bftree_obs::thread_op_counters().since(&before);
    bftree_obs::set_recording(false);
    drop(bftree_obs::drain_spans());
    ratio(delta.filter_probes as f64, sample.len() as f64)
}

/// `probe_batch` nanoseconds per key of one comparator index over
/// `keys` on cold simulated devices.
fn comparator_ns_per_key(index: &dyn AccessMethod, rel: &Relation, keys: &[u64]) -> f64 {
    let io = IoContext::cold(StorageConfig::SsdSsd);
    let t = Instant::now();
    for batch in keys.chunks(STAGE_CHUNK) {
        black_box(index.probe_batch(batch, rel, &io).expect("valid relation"));
    }
    ratio(t.elapsed().as_nanos() as f64, keys.len() as f64)
}

/// The three baselines over the same keys — comparators that keep the
/// paper's competitors in view; no prediction hangs on them.
pub fn comparators(layers: &mut Metrics, rel: &Relation, keys: &[u64]) {
    let keys = &keys[..keys.len().min(65_536)];
    let mut btree = BPlusTree::new(BTreeConfig::paper_default());
    AccessMethod::build(&mut btree, rel).expect("b+-tree bulk build");
    layers.set(
        "btree.probe_ns_per_key",
        comparator_ns_per_key(&btree, rel, keys),
    );
    drop(btree);
    let mut hash = HashIndex::with_capacity(16, 0xCAB1E);
    AccessMethod::build(&mut hash, rel).expect("hash build");
    layers.set(
        "hashindex.probe_ns_per_key",
        comparator_ns_per_key(&hash, rel, keys),
    );
    drop(hash);
    let mut fd = FdTree::new();
    AccessMethod::build(&mut fd, rel).expect("fd-tree bulk build");
    layers.set(
        "fdtree.probe_ns_per_key",
        comparator_ns_per_key(&fd, rel, keys),
    );
}

/// `bftree-model`'s Equation-13 prediction of data-page reads per
/// probe (`hit_share` of the probes hit) against the measured figure.
pub fn model_regret(layers: &mut Metrics, rel: &Relation, fpp: f64, hit_share: f64, measured: f64) {
    let params = ModelParams {
        page_size: rel.heap().page_size() as u64,
        tuple_size: rel.heap().layout().tuple_size() as u64,
        no_tuples: rel.heap().tuple_count(),
        avg_card: 1,
        key_size: 8,
        ptr_size: 8,
        fpp,
        idx_io: 1.0,
        data_io: 1.0,
        seq_dt_io: 1.0,
    };
    let model = BfTreeModel::new(params);
    let predicted = hit_share * params.matching_pages() as f64 + model.expected_false_reads();
    layers.set("model.predicted_reads_per_probe", predicted);
    layers.set("model.regret_reads_per_probe", measured - predicted);
}

/// Per-probe read counts from the device snapshots around `probes`
/// probes.
pub fn reads_per_probe(
    layers: &mut Metrics,
    index: IoSnapshot,
    data: IoSnapshot,
    false_reads: u64,
    probes: u64,
) {
    let n = probes as f64;
    layers.set(
        "core.index_reads_per_probe",
        ratio((index.device_reads() + index.cache_hits) as f64, n),
    );
    layers.set(
        "core.data_reads_per_probe",
        ratio((data.device_reads() + data.cache_hits) as f64, n),
    );
    layers.set("core.false_reads_per_probe", ratio(false_reads as f64, n));
}

/// `bloom.insert_ns_per_key`: `BloomGroup::insert` into a stand-alone
/// group with the geometry of the tree's last leaf.
pub fn bloom_insert_ns_per_key(tree: &BfTree, keys: &[u64]) -> f64 {
    let Some(model) = tree.leaves().iter().rev().find(|l| !l.group().is_empty()) else {
        return 0.0;
    };
    let g = model.group();
    let mut group =
        BloomGroup::new_with_layout(g.total_bits(), g.len(), g.k(), g.seed(), g.layout());
    let buckets = group.len();
    let t = Instant::now();
    for (i, key) in keys.iter().enumerate() {
        group.insert(i % buckets, key);
    }
    black_box(&group);
    ratio(t.elapsed().as_nanos() as f64, keys.len() as f64)
}

/// Stand-alone log over `backend`: `records` appends under group
/// commit, each barrier timed on its own. Returns
/// `(append ns per record, sync ns per barrier)`.
pub fn wal_rungs(backend: &Backend, mode: DurabilityMode, records: u64) -> (f64, f64) {
    let device = backend
        .device(DeviceKind::Ssd, "wal-standalone")
        .expect("log device");
    let every = match mode {
        DurabilityMode::GroupCommit { max_records, .. } => max_records as u64,
        _ => 1,
    };
    // Async: the rung decides when to sync, so the two costs separate.
    let mut wal = Wal::open(device, DurabilityMode::Async, 0);
    let (mut append_ns, mut sync_ns, mut barriers) = (0u64, 0u64, 0u64);
    for i in 0..records {
        let rec = WalRecord::Insert {
            key: 2 * i,
            page: i / 16,
            slot: i % 16,
        };
        let t = Instant::now();
        wal.append(&rec);
        append_ns += t.elapsed().as_nanos() as u64;
        if (i + 1) % every == 0 {
            let t = Instant::now();
            wal.sync();
            sync_ns += t.elapsed().as_nanos() as u64;
            barriers += 1;
        }
    }
    (
        ratio(append_ns as f64, records as f64),
        ratio(sync_ns as f64, barriers as f64),
    )
}

/// Mean `current_fpp` over the tree's non-empty leaves.
pub fn mean_leaf_fpp(tree: &BfTree) -> f64 {
    let live: Vec<f64> = tree
        .leaves()
        .iter()
        .filter(|l| l.n_keys > 0)
        .map(BfLeaf::current_fpp)
        .collect();
    ratio(live.iter().sum::<f64>(), live.len() as f64)
}
