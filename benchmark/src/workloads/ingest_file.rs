//! `ingest_file`: in-process `DurableIndex<BfTree>` on the **file**
//! backend (real `pwrite` / `fdatasync` in a `ScratchDir`), one
//! thread, cold devices, group commit.
//!
//! Why it exists: `wal`, `storage::file` and `DurableIndex`'s flush do
//! most of the work and `core` is used for *writes* beside reads. One
//! write in 16 pays a barrier (≈ 3 % of ops), so p99 lies well inside
//! the fsync population rather than on its knee. After the timed reps
//! the log's durable bytes are replayed by `DurableIndex::recover` and
//! every acked insert not readable, or acked delete still readable,
//! counts as failed.

use std::time::Instant;

use bftree::BfTree;
use bftree_access::{AccessMethod, DurableConfig, DurableIndex};
use bftree_storage::{
    Backend, DeviceKind, IoContext, PageDevice, PageId, Relation, ScratchDir, StorageConfig,
    WallSnapshot,
};
use bftree_wal::DurabilityMode;

use super::{Closure, RepOutcome, RunCfg, Timed, Workload, DELETE, FPP, INSERT, PROBE};
use crate::gen::{Fingerprint, IngestGen, IngestOp};
use crate::ladder::{self, ProbePath};
use crate::oracle::{build_relation, Oracle, FULL_CHECK_EVERY, TUPLE_BYTES};
use crate::report::{Check, Metrics};
use crate::stats::ratio;
use crate::trace::Recorder;

/// Base keys: 524 288 × 256 B = 128 MB (319 BF-leaves). Twice the
/// 64 MB the issue sketched: from 262 144 keys the appends push the
/// BF-Tree's upper structure past 256 leaves in the third timed rep,
/// its root splits, every probe pays one more index read, and
/// throughput steps down by a fifth mid-run — a step the stationarity
/// guard rightly refuses. At this size the height is 3 from the start
/// and stays there for any run length the benchmark allows.
const KEYS: u64 = 1 << 19;
/// Ops per rep, frozen (≈ 1 s at the defining commit).
const REP_OPS: u64 = 25_000;
/// Writes between the traced run's own `flush()` calls.
const FLUSH_EVERY: u64 = 256;
const DURABLE: DurableConfig = DurableConfig {
    flush_batch: FLUSH_EVERY as usize,
    durability: DurabilityMode::GroupCommit {
        max_records: 16,
        max_bytes: 16 * 1024,
    },
};

pub struct IngestFile {
    seed: u64,
    rep_ops: usize,
    /// Keeps the page stores' directory alive; removed on drop.
    scratch: ScratchDir,
    backend: Backend,
    rel: Relation,
    index: DurableIndex<BfTree>,
    io: IoContext,
    gen: IngestGen,
    oracle: Oracle,
    fp: Fingerprint,
    build_s: f64,
}

/// Sum of the file stores' wall counters behind `devices`.
fn wall_of(devices: &[&PageDevice]) -> WallSnapshot {
    let mut total = WallSnapshot::default();
    for w in devices.iter().filter_map(|d| d.wall()) {
        total.reads += w.reads;
        total.writes += w.writes;
        total.syncs_issued += w.syncs_issued;
        total.read_ns += w.read_ns;
        total.write_ns += w.write_ns;
        total.sync_ns += w.sync_ns;
    }
    total
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl IngestFile {
    fn empty_tree(&self) -> BfTree {
        BfTree::builder()
            .fpp(FPP)
            .empty(&self.rel)
            .expect("valid config")
    }

    /// Re-probe every acked insert and delete plus the base-key sample
    /// on `index`, full location equality.
    fn reprobe(&self, index: &DurableIndex<BfTree>) -> Check {
        let io = IoContext::unmetered();
        let mut check = Check::default();
        let appended = (0..self.oracle.appended().len()).map(|j| self.oracle.appended_key(j));
        let keys = appended
            .chain(self.oracle.deleted_keys())
            .chain(self.oracle.verify_sample(self.seed));
        for key in keys {
            check.attempted += 1;
            let ok = index
                .probe(key, &self.rel, &io)
                .is_ok_and(|p| self.oracle.probe_ok(key, &p.matches, true));
            check.failed += u64::from(!ok);
        }
        check
    }
}

impl Workload for IngestFile {
    const NAME: &'static str = "ingest_file";

    fn setup(cfg: &RunCfg) -> Self {
        let scratch = ScratchDir::new("ingest").expect("scratch directory under the checkout");
        let backend = Backend::file(scratch.path().join("live"));
        let rel = build_relation(cfg.base_keys(KEYS, 4_096));
        let t = Instant::now();
        let tree = BfTree::builder()
            .fpp(FPP)
            .build(&rel)
            .expect("valid config");
        let build_s = t.elapsed().as_secs_f64();
        let io = IoContext::cold_on(&backend, StorageConfig::SsdSsd).expect("page stores");
        // Read every index and data page once: first access
        // materialises the page in its store, and that must not happen
        // inside the timed window.
        for pid in tree.all_page_ids() {
            io.index.read_random(pid);
        }
        for pid in 0..rel.heap().page_count() {
            io.data.read_seq(pid);
        }
        let log = backend.device(DeviceKind::Ssd, "wal").expect("log store");
        let oracle = Oracle::new(&rel);
        Self {
            seed: cfg.seed,
            rep_ops: cfg.scaled(REP_OPS, 1_024) as usize,
            gen: IngestGen::new(cfg.seed, oracle.n_base()),
            index: DurableIndex::new(tree, &rel, log, DURABLE),
            scratch,
            backend,
            rel,
            io,
            oracle,
            fp: Fingerprint::default(),
            build_s,
        }
    }

    fn rep(&mut self, rep: u64) -> RepOutcome {
        let ops = self.gen.rep(rep, self.rep_ops, &mut self.fp);
        let mut out = RepOutcome::default();
        out.lat_ns[PROBE].reserve(ops.len() / 2);
        out.lat_ns[INSERT].reserve(ops.len() / 2);
        let window = Instant::now();
        for (r, op) in ops.iter().enumerate() {
            out.check.attempted += 1;
            let ok = match *op {
                IngestOp::Append(key) => {
                    let t = Instant::now();
                    let loc = self.rel.append_tuple(key, key, &self.io);
                    let acked = self.index.insert(key, loc, &self.rel);
                    out.lat_ns[INSERT].push(t.elapsed().as_nanos() as u64);
                    out.errors += u64::from(acked.is_err());
                    self.oracle.record_append(key, loc) && acked.is_ok()
                }
                IngestOp::Delete(key) => {
                    let t = Instant::now();
                    let acked = self.index.delete(key, &self.rel);
                    out.lat_ns[DELETE].push(t.elapsed().as_nanos() as u64);
                    out.errors += u64::from(acked.is_err());
                    self.oracle.record_delete(key);
                    acked.is_ok()
                }
                IngestOp::Probe(key) => {
                    let t = Instant::now();
                    let answer = self.index.probe(key, &self.rel, &self.io);
                    out.lat_ns[PROBE].push(t.elapsed().as_nanos() as u64);
                    out.errors += u64::from(answer.is_err());
                    let full = (r as u64).is_multiple_of(FULL_CHECK_EVERY);
                    answer.is_ok_and(|p| self.oracle.probe_ok(key, &p.matches, full))
                }
            };
            out.ops += 1;
            out.check.failed += u64::from(!ok);
        }
        out.wall_ns = window.elapsed().as_nanos() as u64;
        out
    }

    fn sim_ns(&self) -> u64 {
        self.io.snapshot_total().sim_ns + self.index.wal().device().snapshot().sim_ns
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

    fn verify(&mut self, layers: &mut Metrics) -> Check {
        let mut check = Check::default();
        // Drain and sync: from here every write the run issued is acked
        // durable, so recovery owes us all of them.
        check.attempted += 1;
        check.failed += u64::from(self.index.flush(&self.rel).is_err());
        check.add(self.reprobe(&self.index));

        // Crash: only the log's durable bytes survive. The recovered
        // index logs to a simulated device — replay speed is CPU plus
        // memtable flushes, not a second round of fsyncs.
        let image = self.index.wal().durable_bytes().to_vec();
        check.attempted += 1;
        match DurableIndex::recover(
            self.empty_tree(),
            &self.rel,
            &image,
            PageDevice::cold(DeviceKind::Ssd),
            DURABLE,
        ) {
            Ok((recovered, report)) => {
                let acked =
                    self.oracle.appended().len() as u64 + self.oracle.deleted_keys().len() as u64;
                check.failed += u64::from(report.replayed_records() != acked);
                check.add(self.reprobe(&recovered));
                layers.set("access.recover_s", report.replay_wall_ns as f64 / 1e9);
                layers.set("access.recover_records_per_s", report.records_per_sec());
            }
            Err(_) => check.failed += 1,
        }
        check
    }

    fn trace(&mut self, rec: &mut Recorder, layers: &mut Metrics, timed: &Timed) -> Closure {
        // The traced index: the live tree's state behind a huge flush
        // batch, so the run decides when to flush and can time it.
        self.index.flush(&self.rel).expect("drain before trace");
        let log = self
            .backend
            .device(DeviceKind::Ssd, "wal-traced")
            .expect("log store");
        let mut traced = DurableIndex::new(
            self.index.inner().clone(),
            &self.rel,
            log,
            DurableConfig {
                flush_batch: usize::MAX,
                ..DURABLE
            },
        );
        // A shadow tree takes the same batches directly: what
        // `BfTree::insert_batch` costs inside a flush.
        let mut shadow = self.index.inner().clone();
        let mut scratch_fp = Fingerprint::default();
        let count = (self.rep_ops / 5).max(512);
        let ops = self.gen.rep(u64::MAX, count, &mut scratch_fp);

        let wal_dev = traced.wal().device().clone();
        let devices = [&self.io.index, &self.io.data, &wal_dev];
        let wall_before = wall_of(&devices);
        let dev_before = self.io.snapshot_total().plus(&wal_dev.snapshot());
        let (records_before, syncs_before, len_before) = (
            traced.wal().record_count(),
            traced.wal().sync_count(),
            traced.wal().len(),
        );
        let log_pages_before = wal_dev.snapshot().writes;

        let (mut probe_ns, mut base_probe_ns, mut append_ns) = (0u64, 0u64, 0u64);
        let (mut write_ns, mut flush_ns, mut batch_ns) = (0u64, 0u64, 0u64);
        let (mut probes, mut appends, mut deletes, mut flushes) = (0u64, 0u64, 0u64, 0u64);
        let (mut false_reads, mut memtable_peak, mut batched_keys) = (0u64, 0u64, 0u64);
        let mut probe_keys: Vec<u64> = Vec::new();
        let mut pending: Vec<(u64, PageId)> = Vec::new();
        let mut pending_deletes: Vec<u64> = Vec::new();
        let mut unflushed = 0u64;
        let attr = self.rel.attr();
        for (r, op) in ops.iter().enumerate() {
            rec.set_request(r as u64);
            match *op {
                IngestOp::Probe(key) => {
                    // Alternate which rung goes first, so neither always
                    // finds the other's cache lines warm.
                    let mut durable = |rec: &mut Recorder| {
                        let (p, ns) = rec.span("access.durable.probe", |_| {
                            traced.probe(key, &self.rel, &self.io).expect("valid")
                        });
                        false_reads += p.false_reads;
                        ns
                    };
                    let base = |rec: &mut Recorder| {
                        rec.span("core.probe", |_| {
                            traced
                                .inner()
                                .probe(key, &self.rel, &self.io)
                                .expect("valid")
                        })
                        .1
                    };
                    if r % 2 == 0 {
                        probe_ns += durable(rec);
                        base_probe_ns += base(rec);
                    } else {
                        base_probe_ns += base(rec);
                        probe_ns += durable(rec);
                    }
                    probes += 1;
                    probe_keys.push(key);
                }
                IngestOp::Append(key) => {
                    let (loc, ns) = rec.span("storage.append_tuple", |_| {
                        self.rel.append_tuple(key, key, &self.io)
                    });
                    append_ns += ns;
                    write_ns += rec
                        .span("access.durable.insert", |_| {
                            traced.insert(key, loc, &self.rel).expect("valid")
                        })
                        .1;
                    self.oracle.record_append(key, loc);
                    pending.push((key, loc.0));
                    appends += 1;
                    unflushed += 1;
                }
                IngestOp::Delete(key) => {
                    write_ns += rec
                        .span("access.durable.delete", |_| {
                            traced.delete(key, &self.rel).expect("valid")
                        })
                        .1;
                    self.oracle.record_delete(key);
                    pending_deletes.push(key);
                    deletes += 1;
                    unflushed += 1;
                }
            }
            let last = r + 1 == ops.len();
            if unflushed == FLUSH_EVERY || (last && unflushed > 0) {
                unflushed = 0;
                memtable_peak = memtable_peak.max(traced.memtable_bytes());
                flush_ns += rec
                    .span("access.flush", |_| traced.flush(&self.rel).expect("valid"))
                    .1;
                flushes += 1;
                for key in pending_deletes.drain(..) {
                    shadow.delete(key);
                }
                batched_keys += pending.len() as u64;
                batch_ns += rec
                    .span("core.insert_batch", |_| {
                        shadow.insert_batch(&pending, Some(self.rel.heap()), attr)
                    })
                    .1;
                pending.clear();
            }
        }
        let writes = appends + deletes;
        let top_ns = probe_ns + append_ns + write_ns + flush_ns;

        // Stand-alone log over the same backend.
        let (wal_append_ns, wal_sync_ns) =
            ladder::wal_rungs(&self.backend, DURABLE.durability, writes.max(64));
        layers.set("wal.append_ns_per_record", wal_append_ns);
        layers.set("wal.sync_ns_per_barrier", wal_sync_ns);
        let records = traced.wal().record_count() - records_before;
        let barriers = traced.wal().sync_count() - syncs_before;
        let per_write = |v: f64| ratio(v, writes as f64);
        layers.set("wal.fsyncs_per_write", per_write(barriers as f64));
        layers.set(
            "wal.bytes_per_write",
            per_write((traced.wal().len() - len_before) as f64),
        );
        layers.set(
            "wal.log_pages_per_write",
            per_write((wal_dev.snapshot().writes - log_pages_before) as f64),
        );
        let wal_ns = records as f64 * wal_append_ns + barriers as f64 * wal_sync_ns;

        let wall = wall_of(&devices).since(&wall_before);
        layers.set(
            "storage.file_read_ns_per_page",
            ratio(wall.read_ns as f64, wall.reads as f64),
        );
        layers.set(
            "storage.file_write_ns_per_page",
            ratio(wall.write_ns as f64, wall.writes as f64),
        );
        layers.set(
            "storage.file_sync_ns_per_barrier",
            ratio(wall.sync_ns as f64, wall.syncs_issued as f64),
        );
        layers.set(
            "storage.file_syncs_per_write",
            ratio(wall.syncs_issued as f64, wall.writes as f64),
        );
        let dev = self
            .io
            .snapshot_total()
            .plus(&wal_dev.snapshot())
            .since(&dev_before);
        let per_op = |v: u64| ratio(v as f64, ops.len() as f64);
        layers.set("storage.dev_reads_per_op", per_op(dev.device_reads()));
        layers.set("storage.dev_writes_per_op", per_op(dev.writes));
        layers.set("storage.cache_hit_rate", dev.cache_hit_rate());
        layers.set(
            "storage.write_amp",
            ratio(
                dev.bytes_written as f64,
                (appends * TUPLE_BYTES as u64) as f64,
            ),
        );
        layers.set(
            "storage.disk_bytes_per_user_byte",
            ratio(
                dir_bytes(&self.scratch.path().join("live")) as f64,
                (self.rel.heap().tuple_count() * TUPLE_BYTES as u64) as f64,
            ),
        );
        let (mut retries, mut failed_ops) = (0u64, 0u64);
        for store in devices.iter().filter_map(|d| d.file()).map(|f| f.store()) {
            let f = store.fault_stats().snapshot();
            retries += f.retries;
            failed_ops += f.retries_exhausted + f.permanent_errors;
        }
        layers.set("storage.retries", retries as f64);
        layers.set("storage.failed_ops", failed_ops as f64);
        layers.set(
            "storage.append_tuple_ns",
            ratio(append_ns as f64, appends as f64),
        );

        layers.set(
            "access.durable_probe_self_ns",
            ratio(probe_ns as f64 - base_probe_ns as f64, probes as f64).max(0.0),
        );
        layers.set("access.flush_ns_per_op", per_write(flush_ns as f64));
        layers.set("access.flushes", flushes as f64);
        layers.set("access.memtable_bytes_peak", memtable_peak as f64);
        layers.set("access.probe_p50_us", timed.class_p50_us[PROBE]);
        layers.set("access.insert_ack_p50_us", timed.class_p50_us[INSERT]);
        layers.set("access.insert_ack_p99_us", timed.class_p99_us[INSERT]);
        layers.set("access.delete_ack_p50_us", timed.class_p50_us[DELETE]);
        layers.set(
            "core.insert_batch_ns_per_key",
            ratio(batch_ns as f64, batched_keys as f64),
        );
        layers.set(
            "core.probe_scalar_ns_per_key",
            ratio(base_probe_ns as f64, probes as f64),
        );
        layers.set("core.leaf_fpp_after", ladder::mean_leaf_fpp(traced.inner()));
        layers.set("core.build_s", self.build_s);
        layers.set("core.index_bytes", traced.inner().size_bytes() as f64);
        let insert_keys: Vec<u64> = ops
            .iter()
            .filter_map(|op| match *op {
                IngestOp::Append(key) => Some(key),
                _ => None,
            })
            .collect();
        layers.set(
            "bloom.insert_ns_per_key",
            ladder::bloom_insert_ns_per_key(traced.inner(), &insert_keys),
        );

        // Probe-path rungs over the probed keys, charging the live
        // (materialised) file devices.
        let before = (self.io.index.snapshot(), self.io.data.snapshot());
        let oracle = &self.oracle;
        let st = ladder::probe_stages(
            rec,
            layers,
            traced.inner(),
            &self.rel,
            &probe_keys,
            ProbePath::Scalar,
            |key| oracle.expect(key).is_some(),
            &self.io.index,
            &self.io.data,
        );
        layers.set(
            "storage.charge_cold_ns_per_read",
            ratio(st.charge_ns as f64, st.charges as f64),
        );
        ladder::reads_per_probe(
            layers,
            self.io.index.snapshot().since(&before.0),
            self.io.data.snapshot().since(&before.1),
            false_reads,
            probes,
        );
        let core_probe_self = base_probe_ns as i64 - st.total_ns() as i64;
        layers.set(
            "core.probe_self_ns_per_key",
            ratio(core_probe_self.max(0) as f64, probes as f64),
        );
        layers.set(
            "bloom.filter_probes_per_key",
            ladder::filter_probes_per_key(traced.inner(), &self.rel, &probe_keys),
        );

        let mut closure = Closure {
            top_ns,
            ..Closure::default()
        };
        closure.part("storage (append_tuple)", append_ns as i64);
        closure.part("wal (append + barriers, stand-alone)", wal_ns as i64);
        closure.part(
            "access (DurableIndex self)",
            (probe_ns as i64 - base_probe_ns as i64) + (write_ns + flush_ns) as i64
                - wal_ns as i64
                - batch_ns as i64,
        );
        closure.part("core (insert_batch in flush)", batch_ns as i64);
        closure.part("core (scalar probe self)", core_probe_self);
        closure.part("bloom (hash + sweep)", (st.hash_ns + st.sweep_ns) as i64);
        closure.part("btree (upper descent)", st.descent_ns as i64);
        closure.part("storage (heap scan)", st.heap_ns as i64);
        closure.part("storage (file device charge)", st.charge_ns as i64);
        closure
    }
}
