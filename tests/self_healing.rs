//! End-to-end battery for the self-healing storage plane: seeded
//! fault injection must be reproducible, retries must absorb
//! transients (and their absence must surface them), bit rot must
//! flow quarantine → repair → readable, a failed fsync barrier must
//! heal on the next one, a corrupt WAL page must repair down to the
//! longest valid prefix, and a `DurableIndex` probe over a
//! quarantined data page must *say so* — then answer authoritatively
//! again after `repair_quarantined`.
//!
//! Unit tests inside `bftree-storage` pin each mechanism in
//! isolation; this battery wires them together across crate
//! boundaries, and ends with the whole loop at once: a write-heavy
//! mix under a seeded fault mix on every store, which must lose no
//! acknowledged write and give no wrong answer.

use std::collections::HashSet;
use std::sync::Arc;

use bftree::BfTree;
use bftree_access::{AccessMethod, DegradedProbe, DurableConfig, DurableIndex};
use bftree_bench::{build_index, IndexKind};
use bftree_shard::{ShardPlan, ShardedIndex, ShardedIo};
use bftree_storage::tuple::PK_OFFSET;
use bftree_storage::{
    Backend, DeviceKind, Duplicates, FaultConfig, FaultInjector, FaultKind, FileStore, HeapFile,
    IoContext, IoOutcome, PageDevice, PolicyKind, Relation, RetryPolicy, ScheduledFault,
    ScratchDir, Scrubber, StorageConfig, SyncPolicy, TupleLayout,
};
use bftree_wal::{DurabilityMode, Wal, WalReader, WalRecord};
use bftree_workloads::{mixed_stream, KeyPopularity, Op, OpMix};

fn fresh_store(dir: &ScratchDir, name: &str) -> Arc<FileStore> {
    Arc::new(FileStore::create(dir.path().join(name), SyncPolicy::Deferred).expect("create store"))
}

#[test]
fn injected_fault_streams_are_reproducible_from_the_seed() {
    let dir = ScratchDir::new("heal-seed").unwrap();
    let run = |name: &str| {
        let store = fresh_store(&dir, name);
        let injector = Arc::new(FaultInjector::new(FaultConfig::uniform(0.15, 42)));
        store.set_fault_injector(Arc::clone(&injector));
        // Zero backoff keeps the run fast; the injector stream does
        // not depend on the policy's waits.
        store.set_retry_policy(RetryPolicy::fixed(3, 0));
        let mut outcomes: Vec<IoOutcome> = Vec::new();
        for page in 0..40 {
            outcomes.push(store.charged_write(page));
        }
        for page in 0..40 {
            outcomes.push(store.charged_read(page));
        }
        let mut quarantined = store.quarantine().pages();
        quarantined.sort_unstable();
        let per_kind: Vec<u64> = [
            FaultKind::TransientIo,
            FaultKind::BitRot,
            FaultKind::TornWrite,
            FaultKind::ShortRead,
            FaultKind::FsyncFail,
        ]
        .iter()
        .map(|&k| injector.injected(k))
        .collect();
        (outcomes, quarantined, per_kind, injector.total_injected())
    };
    let a = run("a.bfs");
    let b = run("b.bfs");
    assert_eq!(a, b, "same seed, same ops, same faults, same outcomes");
    assert!(a.3 > 0, "at 15% uniform pressure something must fire");
}

#[test]
fn a_transient_read_fault_retries_to_success() {
    let dir = ScratchDir::new("heal-retry").unwrap();
    let store = fresh_store(&dir, "s.bfs");
    store.write_page(7, b"survivor").unwrap();
    store.set_fault_injector(Arc::new(FaultInjector::new(FaultConfig::scheduled(vec![
        ScheduledFault {
            op: 0,
            kind: FaultKind::TransientIo,
        },
    ]))));
    store.set_retry_policy(RetryPolicy::exponential());
    assert_eq!(
        store.read_page_verified(7).expect("retry heals"),
        b"survivor"
    );
    let snap = store.fault_stats().snapshot();
    assert_eq!(snap.transient_errors, 1);
    assert_eq!(snap.retries, 1);
    assert_eq!(snap.retry_successes, 1);
    assert_eq!(snap.retries_exhausted, 0);
}

#[test]
fn without_retries_transients_surface_and_exhaustion_is_counted() {
    let dir = ScratchDir::new("heal-exhaust").unwrap();
    let store = fresh_store(&dir, "s.bfs");
    store.write_page(7, b"survivor").unwrap();
    let schedule = (0..2)
        .map(|op| ScheduledFault {
            op,
            kind: FaultKind::TransientIo,
        })
        .collect();
    store.set_fault_injector(Arc::new(FaultInjector::new(FaultConfig::scheduled(
        schedule,
    ))));
    store.set_retry_policy(RetryPolicy::none());
    let err = store.read_page_verified(7).unwrap_err();
    assert!(err.is_transient(), "transient classification survives");
    assert_eq!(store.charged_read(7), IoOutcome::Unavailable);
    let snap = store.fault_stats().snapshot();
    assert_eq!(snap.retries, 0, "policy none never retries");
    assert_eq!(snap.retries_exhausted, 2);
    assert!(
        store.quarantine().is_empty(),
        "transient failures never quarantine"
    );
    // The page itself was always fine: with the schedule exhausted the
    // very next read succeeds.
    assert_eq!(store.read_page_verified(7).unwrap(), b"survivor");
}

#[test]
fn bit_rot_quarantines_and_is_never_recached_until_repair() {
    let dir = ScratchDir::new("heal-rot").unwrap();
    let store = fresh_store(&dir, "d.bfs");
    // A caching device: clean re-reads must be absorbed, so the "never
    // re-cached while quarantined" property is observable.
    let device = IoContext::warm(StorageConfig::SsdSsd, 16)
        .index
        .with_store(Arc::clone(&store));

    device.read_random(5); // materialize + cache
    let cold_reads = store.wall().reads;
    device.read_random(5);
    assert_eq!(store.wall().reads, cold_reads, "clean pages cache");

    store.corrupt_page(5).unwrap();
    assert_eq!(store.charged_read(5), IoOutcome::Quarantined);
    assert!(store.quarantine().contains(5));

    // While quarantined the device never serves page 5 from cache —
    // and never re-caches it.
    let during_quarantine = store.wall().reads;
    device.read_random(5);
    device.read_random(5);
    assert!(
        store.wall().reads > during_quarantine,
        "quarantined accesses are never served from cache"
    );

    store.repair_page(5, None).expect("re-stamp repairs");
    assert!(store.quarantine().is_empty());
    // (repair_page's read-back verification charges a read itself, so
    // re-baseline here.)
    let after_repair = store.wall().reads;
    device.read_random(5);
    assert_eq!(
        store.wall().reads,
        after_repair + 1,
        "the repaired page is read from disk once (it was not cached while quarantined)"
    );
    device.read_random(5);
    assert_eq!(
        store.wall().reads,
        after_repair + 1,
        "…and caches again afterwards"
    );
    let snap = store.fault_stats().snapshot();
    assert_eq!(snap.quarantined, 1);
    assert_eq!(snap.repaired, 1);
}

#[test]
fn a_failed_fsync_barrier_heals_on_the_next_one() {
    let dir = ScratchDir::new("heal-fsync").unwrap();
    // PerRequest: every sync request issues a real barrier (Deferred
    // stores only fsync on flush, so the fault would never roll).
    let store = Arc::new(
        FileStore::create(dir.path().join("s.bfs"), SyncPolicy::PerRequest).expect("create store"),
    );
    store.write_page(0, b"window").unwrap();
    store.set_fault_injector(Arc::new(FaultInjector::new(FaultConfig::scheduled(vec![
        ScheduledFault {
            op: 0,
            kind: FaultKind::FsyncFail,
        },
    ]))));
    store.set_retry_policy(RetryPolicy::none());
    let err = store.sync_verified().unwrap_err();
    assert!(err.is_transient(), "a failed fsync is retryable");
    // The barrier failed; nothing was lost, nothing panicked, and the
    // next barrier covers the still-dirty window.
    store.sync_verified().expect("next barrier heals");
    assert_eq!(store.read_page_verified(0).unwrap(), b"window");
}

#[test]
fn a_corrupt_wal_page_repairs_to_the_longest_valid_prefix() {
    let dir = ScratchDir::new("heal-wal").unwrap();
    let backend = Backend::file(dir.path());
    let log = backend.device(DeviceKind::Ssd, "wal").expect("file log");
    let mut wal = Wal::open(log.clone(), DurabilityMode::PerRecord, 100);
    for key in 0..600 {
        wal.append(&WalRecord::Insert {
            key,
            page: key / 8,
            slot: key % 8,
        });
    }
    let full = wal.bytes().to_vec();
    let store = log.file().expect("file-backed").store();
    let pages = store.live_page_ids();
    assert!(pages.len() >= 3, "the log must span several pages");
    let mid = pages[pages.len() / 2];
    store.corrupt_page(mid).unwrap();

    let outcome = Wal::repair_image(&log).expect("an image survives");
    assert!(
        outcome.repaired_pages >= 1,
        "the corrupt page was rewritten"
    );
    assert_eq!(outcome.valid_len, outcome.image.len());
    assert_eq!(
        &outcome.image[..],
        &full[..outcome.valid_len],
        "repair yields an exact prefix of the pre-damage log"
    );
    let (records, _) = WalReader::drain(&outcome.image);
    assert!(!records.is_empty(), "the prefix holds the early records");
    assert!(
        records.len() < 601,
        "records beyond the damage are gone, not invented"
    );
    assert!(
        store.quarantine().is_empty(),
        "repair releases the log page from quarantine"
    );
    // What the store now holds is the surviving pages (page-granular);
    // the record-boundary cut drains to exactly the repaired image's
    // records — a frame prefix torn off by the blanked page is dropped,
    // not resurrected.
    let disk = Wal::load_image(&log).expect("image");
    assert!(disk.starts_with(&outcome.image));
    let (disk_records, _) = WalReader::drain(&disk);
    assert_eq!(disk_records.len(), records.len());
}

fn small_relation(n: u64) -> Relation {
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for pk in 0..n {
        heap.append_record(pk, pk / 3);
    }
    Relation::new(heap, PK_OFFSET, Duplicates::Unique).expect("conventional layout")
}

#[test]
fn degraded_probes_name_their_losses_and_heal_after_repair() {
    let dir = ScratchDir::new("heal-degraded").unwrap();
    let backend = Backend::file(dir.path());
    let rel = small_relation(2_000);
    let inner = build_index(IndexKind::BfTree, &rel, 1e-4);
    let index = DurableIndex::new(
        inner,
        &rel,
        backend.device(DeviceKind::Ssd, "wal").expect("file log"),
        DurableConfig {
            flush_batch: 8,
            durability: DurabilityMode::Async,
        },
    );
    let io = IoContext::cold_on(&backend, StorageConfig::SsdSsd).expect("file devices");
    let data = Arc::clone(io.data.file().expect("file-backed data").store());

    let key = 123;
    let healthy = index.probe_degraded(key, &rel, &io).expect("probe");
    assert!(healthy.complete && healthy.probe.found());
    let page = healthy.probe.matches[0].0;

    // Rot the match-bearing data page and let the scrubber find it.
    assert_eq!(data.charged_read(page), IoOutcome::Ok);
    data.corrupt_page(page).unwrap();
    let sweep = Scrubber::new(Arc::clone(&data)).scrub_pass();
    assert_eq!(sweep.corrupt_found, 1);
    assert!(data.quarantine().contains(page));

    // The answer still comes back (memtable + surviving pages), but
    // labelled partial, naming the quarantined match page.
    let degraded = index.probe_degraded(key, &rel, &io).expect("probe");
    assert!(
        !degraded.complete,
        "a quarantined match page is a partial answer"
    );
    assert!(degraded.quarantined_matches.contains(&page));

    let report = index.repair_quarantined(&io);
    assert!(report.healed(), "repair must clear everything: {report:?}");
    assert!(report.pages_repaired >= 1);
    assert!(data.quarantine().is_empty());

    let healed = index.probe_degraded(key, &rel, &io).expect("probe");
    assert!(healed.complete && healed.probe.found());
    assert_eq!(healed.probe.matches, healthy.probe.matches);
    assert!(
        Scrubber::new(data).scrub_pass().clean(),
        "the store scrubs clean after repair"
    );
}

/// What the fault-mix reckoning drives: one durable stack on its own
/// devices, or a fleet of them behind the shard router.
trait UnderFaults {
    /// Every file-backed page store of the target (index, data, log).
    fn stores(&self) -> Vec<Arc<FileStore>>;
    fn probe_degraded(&self, key: u64, rel: &Relation) -> DegradedProbe;
    fn insert(&mut self, key: u64, rel: &mut Relation);
    fn delete(&mut self, key: u64, rel: &Relation);
    /// One `repair_quarantined` sweep over every store.
    fn repair(&self);
    fn drain(&mut self, rel: &Relation);
    fn found(&self, key: u64, rel: &Relation) -> bool;
}

fn store_of(device: &PageDevice) -> Arc<FileStore> {
    Arc::clone(device.file().expect("file backend").store())
}

struct Single {
    index: DurableIndex<Box<dyn AccessMethod>>,
    io: IoContext,
}

impl UnderFaults for Single {
    fn stores(&self) -> Vec<Arc<FileStore>> {
        [&self.io.index, &self.io.data, self.index.wal().device()]
            .map(store_of)
            .to_vec()
    }
    fn probe_degraded(&self, key: u64, rel: &Relation) -> DegradedProbe {
        self.index
            .probe_degraded(key, rel, &self.io)
            .expect("probe")
    }
    fn insert(&mut self, key: u64, rel: &mut Relation) {
        let loc = rel.append_tuple(key, key, &self.io);
        self.index.insert(key, loc, rel).expect("insert");
    }
    fn delete(&mut self, key: u64, rel: &Relation) {
        self.index.delete(key, rel).expect("delete");
    }
    fn repair(&self) {
        self.index.repair_quarantined(&self.io);
    }
    fn drain(&mut self, rel: &Relation) {
        self.index.flush(rel).expect("final drain");
    }
    fn found(&self, key: u64, rel: &Relation) -> bool {
        let check = IoContext::unmetered();
        self.index.probe(key, rel, &check).expect("probe").found()
    }
}

struct Fleet {
    index: ShardedIndex,
    ios: Vec<IoContext>,
}

impl UnderFaults for Fleet {
    fn stores(&self) -> Vec<Arc<FileStore>> {
        let mut stores = Vec::new();
        for (s, io) in self.ios.iter().enumerate() {
            stores.extend([&io.index, &io.data].map(store_of));
            stores.push(self.index.with_shard(s, |st| store_of(st.wal().device())));
        }
        stores
    }
    fn probe_degraded(&self, key: u64, rel: &Relation) -> DegradedProbe {
        let s = self.index.plan().shard_of(key);
        self.index
            .with_shard(s, |st| st.probe_degraded(key, rel, &self.ios[s]))
            .expect("probe")
    }
    fn insert(&mut self, key: u64, rel: &mut Relation) {
        let loc = rel.append_tuple(key, key, &self.ios[self.index.plan().shard_of(key)]);
        self.index.route_insert(key, loc, rel).expect("insert");
    }
    fn delete(&mut self, key: u64, rel: &Relation) {
        self.index.route_delete(key, rel).expect("delete");
    }
    fn repair(&self) {
        for (s, io) in self.ios.iter().enumerate() {
            self.index.with_shard(s, |st| st.repair_quarantined(io));
        }
    }
    fn drain(&mut self, rel: &Relation) {
        self.index.flush_all(rel).expect("final drain");
    }
    fn found(&self, key: u64, rel: &Relation) -> bool {
        let check = IoContext::unmetered();
        self.index.probe(key, rel, &check).expect("probe").found()
    }
}

/// Drive `ops` through `target` with a seeded injector at `rate` on
/// every one of its stores and `policy` as the hot path's only
/// defence, repairing and scrubbing every 512 ops. Then, with
/// injection off: the quarantines must drain within four repair
/// rounds, every store must scrub clean, and the target must agree
/// with the in-memory oracle on every written key and a sample of the
/// untouched ones — no acked write lost, no authoritative answer
/// wrong. Returns the number of faults injected.
fn run_under_faults(
    target: &mut dyn UnderFaults,
    base: &Relation,
    ops: &[Op],
    rate: f64,
    policy: RetryPolicy,
    seed: u64,
) -> u64 {
    let mut rel = base.clone();
    let stores = target.stores();
    let injectors: Vec<Arc<FaultInjector>> = stores
        .iter()
        .zip(seed..)
        .map(|(store, seed)| {
            let injector = Arc::new(FaultInjector::new(FaultConfig::uniform(rate, seed)));
            store.set_fault_injector(Arc::clone(&injector));
            store.set_retry_policy(policy);
            injector
        })
        .collect();
    let scrubbers: Vec<Scrubber> = stores
        .iter()
        .map(|s| Scrubber::new(Arc::clone(s)))
        .collect();

    let n_keys = base.heap().tuple_count();
    let mut oracle: HashSet<u64> = (0..n_keys).collect();
    let mut wrong_answers = 0u64;
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Probe(k) => {
                // A partial answer says so; only authoritative ones
                // are held against the oracle.
                let answer = target.probe_degraded(k, &rel);
                if answer.complete && answer.probe.found() != oracle.contains(&k) {
                    wrong_answers += 1;
                }
            }
            Op::Insert(k) => {
                target.insert(k, &mut rel);
                oracle.insert(k);
            }
            Op::Delete(k) => {
                target.delete(k, &rel);
                oracle.remove(&k);
            }
        }
        if (i + 1) % 512 == 0 {
            target.repair();
            for scrubber in &scrubbers {
                scrubber.scrub_pass();
            }
        }
    }
    target.drain(&rel);

    // The reckoning runs with injection off: the question is whether
    // the damage already done was contained.
    let injected = injectors.iter().map(|i| i.total_injected()).sum();
    for store in &stores {
        store.set_fault_injector(Arc::new(FaultInjector::inert()));
    }
    let quarantined = || stores.iter().map(|s| s.quarantine().len()).sum::<usize>();
    for round in 0.. {
        target.repair();
        if quarantined() == 0 {
            break;
        }
        assert!(round < 4, "quarantine not drained after {round} repairs");
    }
    for (store, scrubber) in stores.iter().zip(&scrubbers) {
        if !scrubber.scrub_pass().clean() {
            // The scrubber can catch rot the run never touched; one
            // more repair must clear it.
            target.repair();
            assert!(
                scrubber.scrub_pass().clean(),
                "store {} still dirty after the final repair",
                store.path().display()
            );
        }
        assert!(store.quarantine().is_empty(), "quarantine drained");
    }

    let written = ops.iter().filter_map(|op| match *op {
        Op::Insert(k) | Op::Delete(k) => Some(k),
        Op::Probe(_) => None,
    });
    let lost_acked_writes = written
        .filter(|&k| target.found(k, &rel) != oracle.contains(&k))
        .count();
    wrong_answers += (0..n_keys)
        .step_by(997)
        .filter(|&k| target.found(k, &rel) != oracle.contains(&k))
        .count() as u64;
    assert_eq!(lost_acked_writes, 0, "acked writes lost under faults");
    assert_eq!(wrong_answers, 0, "authoritative answers disagreed");
    injected
}

/// The chaos sweep at smoke size: a write-heavy mix (50 % probes,
/// 40 % inserts, 10 % deletes) through a BF-Tree `DurableIndex` on
/// file-backed SSD/SSD devices plus an SSD log, fault-free and at a
/// 10⁻³ fault rate with and without retries, then the same stream
/// through a two-shard fleet. Every cell must end exact.
#[test]
fn a_seeded_fault_mix_loses_no_acked_write_and_answers_exactly() {
    const OPS: usize = 2_000;
    let dir = ScratchDir::new("heal-chaos").unwrap();
    let base = small_relation(16_384);
    let n_keys = base.heap().tuple_count();
    let domain: Vec<u64> = (0..n_keys).collect();
    let insert_keys: Vec<u64> = (0..OPS as u64 * 2 / 5).map(|i| n_keys + i).collect();
    let delete_keys: Vec<u64> = (0..OPS as u64 / 10).map(|i| (i * 499) % n_keys).collect();
    let ops = mixed_stream(
        &domain,
        KeyPopularity::Uniform,
        OpMix::WRITE_HEAVY,
        &insert_keys,
        &delete_keys,
        OPS,
        0xBF09,
    );
    let durable = DurableConfig {
        flush_batch: 256,
        durability: DurabilityMode::GroupCommit {
            max_records: 64,
            max_bytes: 16 * 1024,
        },
    };

    let cells = [
        (0.0, RetryPolicy::none()),
        (1e-3, RetryPolicy::none()),
        (1e-3, RetryPolicy::exponential()),
    ];
    for (cell, (rate, policy)) in cells.into_iter().enumerate() {
        let backend = Backend::file(dir.path().join(format!("cell{cell}")));
        let mut single = Single {
            index: DurableIndex::new(
                build_index(IndexKind::BfTree, &base, 1e-4),
                &base,
                backend.device(DeviceKind::Ssd, "wal").expect("file log"),
                durable,
            ),
            io: IoContext::cold_on(&backend, StorageConfig::SsdSsd).expect("file devices"),
        };
        let seed = 0xC4A0_5000 + cell as u64 * 16;
        let injected = run_under_faults(&mut single, &base, &ops, rate, policy, seed);
        assert_eq!(injected > 0, rate > 0.0, "rate {rate}: {injected} faults");
    }

    // The fleet: a quantile plan over base keys and the fresh insert
    // block, so both shards take reads and writes.
    let mut sample: Vec<u64> = (0..n_keys).step_by(97).collect();
    sample.extend(&insert_keys);
    sample.sort_unstable();
    let backend = Backend::file(dir.path().join("fleet"));
    let mut index = ShardedIndex::new(
        ShardPlan::from_sample(&sample, 2),
        &base,
        durable,
        |_| Box::new(BfTree::builder().fpp(1e-4).empty(&base).expect("valid")),
        |s| {
            backend
                .device(DeviceKind::Ssd, &format!("wal{s}"))
                .expect("file log")
        },
    );
    index.build(&base).expect("sharded build");
    let ios = ShardedIo::new(
        &backend,
        StorageConfig::SsdSsd,
        64 << 20,
        PolicyKind::Lru,
        2,
    )
    .expect("file devices")
    .into_ios();
    let mut fleet = Fleet { index, ios };
    let injected = run_under_faults(
        &mut fleet,
        &base,
        &ops,
        1e-3,
        RetryPolicy::exponential(),
        0xC4A0_6000,
    );
    assert!(injected > 0, "the fleet saw faults");
}
