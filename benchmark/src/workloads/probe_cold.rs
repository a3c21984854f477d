//! `probe_cold`: in-process `AccessMethod::probe_batch` on `&BfTree`,
//! one thread, cold simulated SSD/SSD devices (lock-free, no cache).
//!
//! Why it exists: the paper's core path — hash → filter sweep → upper
//! descent → heap-page scan → device charge — does all the work and
//! nothing else runs: no cache, lock, log or socket. A gain in
//! `bloom`, `btree`, `core` or `storage::heap` shows here at full size
//! and must *not* show on `ingest_file`.

use std::time::Instant;

use bftree::BfTree;
use bftree_access::AccessMethod;
use bftree_storage::{IoContext, PageDevice, Relation, StorageConfig};

use super::{Closure, RepOutcome, RunCfg, Timed, Workload, FPP, PROBE};
use crate::gen::{self, Fingerprint, COLD_BATCH};
use crate::ladder::{self, ProbePath};
use crate::oracle::{build_relation, Oracle, FULL_CHECK_EVERY};
use crate::report::{Check, Metrics};
use crate::stats::ratio;
use crate::trace::Recorder;

/// Base keys: 1 048 576 × 256 B = 256 MB.
const KEYS: u64 = 1 << 20;
/// Requests per rep, frozen: ≈ 1 s at the commit that defined the
/// benchmark, on its 2-core host.
const REP_BATCHES: u64 = 3_072;

pub struct ProbeCold {
    seed: u64,
    rep_batches: usize,
    rel: Relation,
    tree: BfTree,
    io: IoContext,
    oracle: Oracle,
    fp: Fingerprint,
    build_s: f64,
}

impl ProbeCold {
    /// Probe `keys` batch by batch, checking every answer.
    fn issue(&self, keys: &[u64]) -> RepOutcome {
        let mut out = RepOutcome::default();
        out.lat_ns[PROBE].reserve(keys.len() / COLD_BATCH);
        let window = Instant::now();
        for (r, batch) in keys.chunks(COLD_BATCH).enumerate() {
            let t = Instant::now();
            let answer = self.tree.probe_batch(batch, &self.rel, &self.io);
            out.lat_ns[PROBE].push(t.elapsed().as_nanos() as u64);
            out.check.attempted += batch.len() as u64;
            match answer {
                Ok(probes) => {
                    let full = (r as u64).is_multiple_of(FULL_CHECK_EVERY);
                    for (key, probe) in batch.iter().zip(&probes) {
                        let ok = self.oracle.probe_ok(*key, &probe.matches, full);
                        out.check.failed += u64::from(!ok);
                    }
                    out.ops += batch.len() as u64;
                }
                Err(_) => {
                    out.errors += 1;
                    out.check.failed += batch.len() as u64;
                }
            }
        }
        out.wall_ns = window.elapsed().as_nanos() as u64;
        out
    }
}

impl Workload for ProbeCold {
    const NAME: &'static str = "probe_cold";

    fn setup(cfg: &RunCfg) -> Self {
        let rel = build_relation(cfg.base_keys(KEYS, 4_096));
        let t = Instant::now();
        let tree = BfTree::builder()
            .fpp(FPP)
            .build(&rel)
            .expect("valid config");
        let build_s = t.elapsed().as_secs_f64();
        Self {
            seed: cfg.seed,
            rep_batches: cfg.scaled(REP_BATCHES, 16) as usize,
            oracle: Oracle::new(&rel),
            io: IoContext::cold(StorageConfig::SsdSsd),
            rel,
            tree,
            fp: Fingerprint::default(),
            build_s,
        }
    }

    fn rep(&mut self, rep: u64) -> RepOutcome {
        let keys = gen::cold_keys(
            self.seed,
            rep,
            self.oracle.n_base(),
            self.rep_batches,
            &mut self.fp,
        );
        self.issue(&keys)
    }

    fn sim_ns(&self) -> u64 {
        self.io.snapshot_total().sim_ns
    }

    fn index_bytes(&self) -> u64 {
        self.tree.size_bytes()
    }

    fn live_keys(&self) -> u64 {
        self.oracle.live_keys()
    }

    fn fingerprint(&self) -> u64 {
        self.fp.0
    }

    fn verify(&mut self, _layers: &mut Metrics) -> Check {
        let mut keys = self.oracle.verify_sample(self.seed);
        // A quarter as many absent keys, inside the domain.
        let absent: Vec<u64> = keys.iter().step_by(4).map(|k| k + 1).collect();
        keys.extend(absent);
        let io = IoContext::unmetered();
        let mut check = Check::default();
        for batch in keys.chunks(COLD_BATCH) {
            check.attempted += batch.len() as u64;
            match self.tree.probe_batch(batch, &self.rel, &io) {
                Ok(probes) => {
                    for (key, probe) in batch.iter().zip(&probes) {
                        check.failed +=
                            u64::from(!self.oracle.probe_ok(*key, &probe.matches, true));
                    }
                }
                Err(_) => check.failed += batch.len() as u64,
            }
        }
        check
    }

    fn trace(&mut self, rec: &mut Recorder, layers: &mut Metrics, _timed: &Timed) -> Closure {
        // The first fifth of rep 1's stream, replayed.
        let mut scratch_fp = Fingerprint::default();
        let batches = (self.rep_batches / 5).max(4);
        let keys = gen::cold_keys(self.seed, 1, self.oracle.n_base(), batches, &mut scratch_fp);

        // Top rung: the public call, on fresh cold devices.
        let io = IoContext::cold(StorageConfig::SsdSsd);
        let (mut top_ns, mut false_reads) = (0u64, 0u64);
        for (r, batch) in keys.chunks(COLD_BATCH).enumerate() {
            rec.set_request(r as u64);
            let (probes, ns) = rec.span("core.probe_batch", |_| {
                self.tree
                    .probe_batch(batch, &self.rel, &io)
                    .expect("valid relation")
            });
            top_ns += ns;
            false_reads += probes.iter().map(|p| p.false_reads).sum::<u64>();
        }
        let n = keys.len() as u64;
        layers.set(
            "core.probe_batch_ns_per_key",
            ratio(top_ns as f64, n as f64),
        );
        let (index, data) = (io.index.snapshot(), io.data.snapshot());
        ladder::reads_per_probe(layers, index, data, false_reads, n);
        let total = io.snapshot_total();
        layers.set(
            "storage.dev_reads_per_op",
            ratio(total.device_reads() as f64, n as f64),
        );
        layers.set(
            "storage.dev_writes_per_op",
            ratio(total.writes as f64, n as f64),
        );
        layers.set("storage.cache_hit_rate", total.cache_hit_rate());

        // Lower rungs over the same keys.
        let oracle = &self.oracle;
        let (idx_dev, data_dev) = (
            PageDevice::cold(StorageConfig::SsdSsd.index_kind()),
            PageDevice::cold(StorageConfig::SsdSsd.data_kind()),
        );
        let st = ladder::probe_stages(
            rec,
            layers,
            &self.tree,
            &self.rel,
            &keys,
            ProbePath::Batched,
            |key| oracle.expect(key).is_some(),
            &idx_dev,
            &data_dev,
        );
        layers.set(
            "storage.charge_cold_ns_per_read",
            ratio(st.charge_ns as f64, st.charges as f64),
        );
        let core_self = top_ns as i64 - st.total_ns() as i64;
        layers.set(
            "core.probe_self_ns_per_key",
            ratio(core_self.max(0) as f64, n as f64),
        );
        layers.set(
            "bloom.filter_probes_per_key",
            ladder::filter_probes_per_key(&self.tree, &self.rel, &keys),
        );

        // Scalar path over a slice of the same keys (its own metric;
        // not part of this workload's ladder).
        let scalar = &keys[..keys.len().min(16_384)];
        let t = Instant::now();
        for &key in scalar {
            let _ = std::hint::black_box(
                self.tree
                    .probe(key, &self.rel, &io)
                    .expect("valid relation"),
            );
        }
        layers.set(
            "core.probe_scalar_ns_per_key",
            ratio(t.elapsed().as_nanos() as f64, scalar.len() as f64),
        );

        layers.set("core.build_s", self.build_s);
        layers.set("core.index_bytes", self.tree.size_bytes() as f64);
        layers.set("core.leaf_fpp_after", ladder::mean_leaf_fpp(&self.tree));
        let hit_share = ratio(keys.iter().filter(|k| *k % 2 == 0).count() as f64, n as f64);
        ladder::model_regret(
            layers,
            &self.rel,
            FPP,
            hit_share,
            layers.get("core.data_reads_per_probe"),
        );
        ladder::comparators(layers, &self.rel, &keys);

        let mut closure = Closure {
            top_ns,
            ..Closure::default()
        };
        closure.part("bloom (hash + sweep)", (st.hash_ns + st.sweep_ns) as i64);
        closure.part("btree (upper descent)", st.descent_ns as i64);
        closure.part("storage (heap scan)", st.heap_ns as i64);
        closure.part("storage (device charge)", st.charge_ns as i64);
        closure.part("core (pipeline self)", core_self);
        closure
    }
}
