//! Crash-recovery battery for the durable write path: run a scripted
//! insert/delete workload through a [`DurableIndex`], then kill the
//! log at **every record boundary** and recover. The recovered index
//! must answer identically — probe for probe, scan for scan — to a
//! reference built over the surviving heap prefix with the surviving
//! operations applied directly. The battery runs against all four
//! access methods; torn tails, corrupt frames, and a missing genesis
//! checkpoint get their own cases.
//!
//! The script deletes base keys it never reinserts (and inserts only
//! fresh keys), so a direct-apply reference is exact: the answers are
//! a pure function of the surviving operation set. A delete marks the
//! heap, and the marks are in memory, so a crash loses them all: each
//! cut's recovery, reference and oracle get their own copy of the
//! relation a crash leaves (`crash_relation`), every scripted tuple
//! appended and none marked, and the replay must delete again.

use bftree::BfTree;
use bftree_access::{AccessMethod, DurableConfig, DurableIndex, RecoverError};
use bftree_btree::{BPlusTree, BTreeConfig};
use bftree_fdtree::FdTree;
use bftree_hashindex::HashIndex;
use bftree_shard::{ShardPlan, ShardedIndex};
use bftree_storage::tuple::PK_OFFSET;
use bftree_storage::{
    Backend, DeviceKind, Duplicates, HeapFile, IoContext, PageDevice, PageId, Relation, ScratchDir,
    TupleLayout,
};
use bftree_wal::{DurabilityMode, TailState, Wal, WalReader, WalRecord};

const N: u64 = 2_000;
const FRESH: u64 = 10_000;

fn config() -> DurableConfig {
    DurableConfig {
        flush_batch: 8,
        durability: DurabilityMode::GroupCommit {
            max_records: 4,
            max_bytes: 4 * 1024,
        },
    }
}

fn base_relation() -> Relation {
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for pk in 0..N {
        heap.append_record(pk, pk / 3);
    }
    Relation::new(heap, PK_OFFSET, Duplicates::Unique).expect("conventional layout")
}

/// The scripted workload: 30 inserts of fresh keys interleaved with
/// 10 deletes of distinct base keys (stride 37 — never reinserted).
fn script_ops() -> Vec<WalRecord> {
    let mut ops = Vec::new();
    let (mut ins, mut del) = (0u64, 0u64);
    for i in 0..40 {
        if i % 4 == 3 {
            ops.push(WalRecord::Delete { key: del * 37 });
            del += 1;
        } else {
            // page/slot filled in once the tuple is appended.
            ops.push(WalRecord::Insert {
                key: FRESH + ins,
                page: 0,
                slot: 0,
            });
            ins += 1;
        }
    }
    ops
}

/// `rel` with every insert of `script` appended and no tuple marked
/// dead: the relation a crash leaves. Heap pages are durable at append
/// time; delete marks live in memory only, so recovery's replay of the
/// surviving Delete records must mark them again.
fn crash_relation(mut rel: Relation, script: &[WalRecord]) -> Relation {
    let io = IoContext::unmetered();
    for op in script {
        if let WalRecord::Insert { key, .. } = *op {
            rel.append_tuple(key, key, &io);
        }
    }
    rel
}

/// Keys whose answers the battery compares: every scripted write key,
/// a stride sample of untouched base keys, and a guaranteed miss.
fn watched_keys() -> Vec<u64> {
    let mut keys: Vec<u64> = script_ops()
        .iter()
        .map(|r| match *r {
            WalRecord::Insert { key, .. } | WalRecord::Delete { key } => key,
            WalRecord::Checkpoint { .. } => unreachable!("script has no checkpoints"),
        })
        .collect();
    keys.extend((0..N).step_by(101));
    keys.push(N * 50);
    keys
}

fn sorted_probe(index: &dyn AccessMethod, key: u64, rel: &Relation) -> Vec<(PageId, usize)> {
    let io = IoContext::unmetered();
    let mut m = index.probe(key, rel, &io).expect("probe").matches;
    m.sort_unstable();
    m
}

fn sorted_scan(index: &dyn AccessMethod, rel: &Relation) -> Vec<(PageId, usize)> {
    let io = IoContext::unmetered();
    let mut m = index
        .range_scan(0, FRESH * 2, rel, &io)
        .expect("valid range")
        .matches;
    m.sort_unstable();
    m
}

/// Build the reference: a fresh index over the heap prefix the genesis
/// checkpoint names, with `records` (the surviving log, genesis
/// excluded) applied directly — no WAL, no memtable.
fn reference(
    make: &dyn Fn() -> Box<dyn AccessMethod>,
    rel: &Relation,
    base_tuples: u64,
    records: &[(usize, WalRecord)],
) -> Box<dyn AccessMethod> {
    let base_rel = Relation::new(
        rel.heap().truncated(base_tuples),
        rel.attr(),
        rel.duplicates(),
    )
    .expect("base prefix is a valid relation");
    let mut index = make();
    index.build(&base_rel).expect("reference build");
    for &(_, rec) in records {
        match rec {
            WalRecord::Insert { key, page, slot } => index
                .insert(key, (page, slot as usize), rel)
                .expect("reference insert"),
            WalRecord::Delete { key } => {
                index.delete(key, rel).expect("reference delete");
            }
            WalRecord::Checkpoint { .. } => {}
        }
    }
    index
}

/// The scan oracle: an uncrashed `DurableIndex` that simply stopped
/// after `records` — built from the in-memory operation list, never
/// from log bytes. Scans are compared against this rather than the
/// direct-apply reference because page-granular indexes legitimately
/// return every in-range tuple on a heap page they read, including
/// tuples whose registering insert is past the cut; the probe oracle
/// stays the independent direct-apply index.
fn uncrashed_prefix(
    make: &dyn Fn() -> Box<dyn AccessMethod>,
    rel: &Relation,
    base_tuples: u64,
    records: &[(usize, WalRecord)],
    config: DurableConfig,
) -> DurableIndex<Box<dyn AccessMethod>> {
    let base_rel = Relation::new(
        rel.heap().truncated(base_tuples),
        rel.attr(),
        rel.duplicates(),
    )
    .expect("base prefix is a valid relation");
    let mut inner = make();
    inner.build(&base_rel).expect("oracle build");
    let mut index = DurableIndex::new(inner, &base_rel, PageDevice::cold(DeviceKind::Ssd), config);
    for &(_, rec) in records {
        match rec {
            WalRecord::Insert { key, page, slot } => index
                .insert(key, (page, slot as usize), rel)
                .expect("oracle insert"),
            WalRecord::Delete { key } => {
                index.delete(key, rel).expect("oracle delete");
            }
            WalRecord::Checkpoint { .. } => {}
        }
    }
    index
}

struct Crashed {
    /// The uncrashed run's relation: every scripted tuple appended,
    /// every scripted delete marked.
    rel: Relation,
    /// The uncrashed index, memtable tail and all.
    live: DurableIndex<Box<dyn AccessMethod>>,
    /// Full log image of the uncrashed run.
    image: Vec<u8>,
}

/// Run the script through a `DurableIndex` over `make()`'s index,
/// logging to a simulated SSD device.
fn run_script(make: &dyn Fn() -> Box<dyn AccessMethod>) -> Crashed {
    run_script_on(make, PageDevice::cold(DeviceKind::Ssd), config())
}

/// The same scripted run with an explicit log device — how the
/// backend-invariance case drives the script against file-backed
/// storage.
fn run_script_on(
    make: &dyn Fn() -> Box<dyn AccessMethod>,
    log: PageDevice,
    config: DurableConfig,
) -> Crashed {
    let mut rel = base_relation();
    let mut inner = make();
    inner.build(&rel).expect("base build");
    let mut index = DurableIndex::new(inner, &rel, log, config);
    let io = IoContext::unmetered();
    for op in script_ops() {
        match op {
            WalRecord::Insert { key, .. } => {
                let loc = rel.append_tuple(key, key, &io);
                index.insert(key, loc, &rel).expect("scripted insert");
            }
            WalRecord::Delete { key } => {
                index.delete(key, &rel).expect("scripted delete");
            }
            WalRecord::Checkpoint { .. } => unreachable!("script has no checkpoints"),
        }
    }
    let image = index.wal().bytes().to_vec();
    Crashed {
        rel,
        live: index,
        image,
    }
}

/// The battery: kill at every record boundary, recover, and demand
/// answers identical to the direct-apply reference — under the
/// suite's small group-commit window, and at the two far corners of
/// the durability × flush-batch plane: every record synced and every
/// op drained on its own, and nothing synced with a batch the script
/// never fills.
fn kill_at_every_record_boundary(make: &dyn Fn() -> Box<dyn AccessMethod>) {
    let direct = DurableConfig {
        flush_batch: 1,
        durability: DurabilityMode::PerRecord,
    };
    let lazy = DurableConfig {
        flush_batch: 4096,
        durability: DurabilityMode::Async,
    };
    for config in [config(), direct, lazy] {
        kill_at_every_record_boundary_under(make, config);
    }
}

fn kill_at_every_record_boundary_under(
    make: &dyn Fn() -> Box<dyn AccessMethod>,
    config: DurableConfig,
) {
    let Crashed { rel, live, image } =
        run_script_on(make, PageDevice::cold(DeviceKind::Ssd), config);
    let (all_records, tail) = WalReader::drain(&image);
    assert_eq!(tail, TailState::Clean, "uncrashed log must parse cleanly");
    let keys = watched_keys();
    let pristine = crash_relation(base_relation(), &script_ops());

    for cut in 0..all_records.len() {
        let boundary = all_records[cut].0;
        let truncated = &image[..boundary];
        let surviving = &all_records[1..=cut];
        let crashed = pristine.clone();
        let (recovered, report) = DurableIndex::recover(
            make(),
            &crashed,
            truncated,
            PageDevice::cold(DeviceKind::Ssd),
            config,
        )
        .expect("boundary cut recovers");
        assert_eq!(report.tail, TailState::Clean, "cut at {boundary}");
        assert_eq!(report.base_tuples, N, "genesis names the base heap");
        let (wants_i, wants_d) = surviving.iter().fold((0, 0), |(i, d), &(_, r)| match r {
            WalRecord::Insert { .. } => (i + 1, d),
            WalRecord::Delete { .. } => (i, d + 1),
            WalRecord::Checkpoint { .. } => (i, d),
        });
        assert_eq!(report.replayed_inserts, wants_i, "cut at {boundary}");
        assert_eq!(report.replayed_deletes, wants_d, "cut at {boundary}");

        let expect_rel = pristine.clone();
        let expect = reference(make, &expect_rel, N, surviving);
        for &k in &keys {
            assert_eq!(
                sorted_probe(&recovered, k, &crashed),
                sorted_probe(expect.as_ref(), k, &expect_rel),
                "{}: probe({k}) diverged after a cut at byte {boundary}",
                recovered.name(),
            );
        }
        // A delete the cut lost is undone: its key is found again.
        for &(_, rec) in &all_records[cut + 1..] {
            if let WalRecord::Delete { key } = rec {
                assert!(
                    !sorted_probe(&recovered, key, &crashed).is_empty(),
                    "{}: delete of {key} past the cut at byte {boundary} stuck",
                    recovered.name(),
                );
            }
        }
        let oracle_rel = pristine.clone();
        let oracle = uncrashed_prefix(make, &oracle_rel, N, surviving, config);
        assert_eq!(
            sorted_scan(&recovered, &crashed),
            sorted_scan(&oracle, &oracle_rel),
            "{}: range scan diverged after a cut at byte {boundary}",
            recovered.name(),
        );
    }

    // Killing after the final record loses nothing: the recovered
    // index answers exactly like the uncrashed one, unflushed
    // memtable tail included.
    let crashed = pristine.clone();
    let (recovered, report) = DurableIndex::recover(
        make(),
        &crashed,
        &image,
        PageDevice::cold(DeviceKind::Ssd),
        config,
    )
    .expect("full image recovers");
    assert_eq!(report.tail, TailState::Clean);
    for &k in &keys {
        assert_eq!(
            sorted_probe(&recovered, k, &crashed),
            sorted_probe(&live, k, &rel),
            "probe({k}): recovered index diverged from the uncrashed one",
        );
    }
    assert_eq!(
        sorted_scan(&recovered, &crashed),
        sorted_scan(&live, &rel),
        "recovered range scan diverged from the uncrashed one",
    );
    assert_eq!(recovered.buffered_ops(), live.buffered_ops());
    assert_eq!(recovered.flush_count(), live.flush_count());
}

fn make_bf_tree() -> Box<dyn AccessMethod> {
    Box::new(
        BfTree::builder()
            .fpp(1e-4)
            .empty(&base_relation())
            .expect("valid config"),
    )
}

#[test]
fn kill_at_every_record_boundary_bf_tree() {
    kill_at_every_record_boundary(&make_bf_tree);
}

#[test]
fn kill_at_every_record_boundary_b_plus_tree() {
    kill_at_every_record_boundary(&|| Box::new(BPlusTree::new(BTreeConfig::paper_default())));
}

#[test]
fn kill_at_every_record_boundary_hash_index() {
    kill_at_every_record_boundary(&|| Box::new(HashIndex::with_capacity(16, 0xC0FFEE)));
}

#[test]
fn kill_at_every_record_boundary_fd_tree() {
    kill_at_every_record_boundary(&|| Box::new(FdTree::new()));
}

#[test]
fn a_torn_tail_recovers_the_longest_valid_prefix() {
    let Crashed { image, .. } = run_script(&make_bf_tree);
    let (all_records, _) = WalReader::drain(&image);
    // Cut mid-record: a few bytes past a boundary in the middle.
    let cut = all_records[all_records.len() / 2];
    let torn = &image[..cut.0 + 3];
    let surviving_cut = all_records.iter().position(|r| r.0 == cut.0).unwrap();
    let surviving = &all_records[1..=surviving_cut];
    let rel = crash_relation(base_relation(), &script_ops());
    let expect_rel = rel.clone();
    let (recovered, report) = DurableIndex::recover(
        make_bf_tree(),
        &rel,
        torn,
        PageDevice::cold(DeviceKind::Ssd),
        config(),
    )
    .expect("torn tail still recovers");
    assert_eq!(
        report.tail,
        TailState::Torn { valid_len: cut.0 },
        "the torn verdict names the last boundary"
    );
    let expect = reference(&make_bf_tree, &expect_rel, N, surviving);
    for &k in &watched_keys() {
        assert_eq!(
            sorted_probe(&recovered, k, &rel),
            sorted_probe(expect.as_ref(), k, &expect_rel),
            "probe({k}) diverged after a torn tail",
        );
    }
}

#[test]
fn a_corrupt_frame_truncates_recovery_at_the_damage() {
    let Crashed { image, .. } = run_script(&make_bf_tree);
    let (all_records, _) = WalReader::drain(&image);
    let cut = all_records.len() / 2;
    let boundary = all_records[cut].0;
    let rel = crash_relation(base_relation(), &script_ops());
    let expect_rel = rel.clone();
    // Flip a payload byte of the record after the boundary: its CRC
    // fails, and everything from there on is untrusted.
    let mut corrupt = image.clone();
    corrupt[boundary + 10] ^= 0xFF;
    let (recovered, report) = DurableIndex::recover(
        make_bf_tree(),
        &rel,
        &corrupt,
        PageDevice::cold(DeviceKind::Ssd),
        config(),
    )
    .expect("corruption is a torn tail, not a crash");
    assert_eq!(
        report.tail,
        TailState::Torn {
            valid_len: boundary
        }
    );
    let expect = reference(&make_bf_tree, &expect_rel, N, &all_records[1..=cut]);
    for &k in &watched_keys() {
        assert_eq!(
            sorted_probe(&recovered, k, &rel),
            sorted_probe(expect.as_ref(), k, &expect_rel),
            "probe({k}) diverged after frame corruption",
        );
    }
}

/// Backend invariance for the durable write path: the scripted run
/// produces byte-identical log images and identical log-device
/// counters (writes, fsyncs, simulated clock) whether the log device
/// is simulated or file-backed — and on the file backend, the bytes
/// the store actually holds are the durable prefix, from which
/// recovery answers exactly like a direct-apply reference over the
/// surviving records.
#[test]
fn scripted_run_is_backend_invariant_and_recovers_from_disk() {
    let sim = run_script(&make_bf_tree);
    let dir = ScratchDir::new("recovery-backend").unwrap();
    let backend = Backend::file(dir.path());
    let log = backend.device(DeviceKind::Ssd, "wal").expect("file log");
    assert!(log.file().is_some(), "file backend must materialize");
    let file = run_script_on(&make_bf_tree, log.clone(), config());

    // Identical logical outcome: same log bytes, same device charges.
    assert_eq!(sim.image, file.image, "log images diverged across backends");
    assert_eq!(
        sim.live.wal().device().snapshot(),
        log.snapshot(),
        "log device counters diverged across backends"
    );
    let wall = log.wall().expect("file-backed log has wall counters");
    assert!(wall.writes > 0, "the file log must persist real pages");
    assert!(wall.syncs_issued > 0, "group commit must reach fdatasync");

    // What the store holds is the durable prefix of the full image…
    let disk = Wal::load_image(&log).expect("file-backed log has an image");
    assert!(!disk.is_empty());
    assert_eq!(&disk[..], &file.image[..disk.len()]);

    // …and recovering from those on-disk bytes matches a direct-apply
    // reference over exactly the records they hold.
    let (records, _) = WalReader::drain(&disk);
    let rel = crash_relation(base_relation(), &script_ops());
    let expect_rel = rel.clone();
    let (recovered, report) = DurableIndex::recover(
        make_bf_tree(),
        &rel,
        &disk,
        PageDevice::cold(DeviceKind::Ssd),
        config(),
    )
    .expect("on-disk image recovers");
    assert_eq!(report.base_tuples, N);
    let expect = reference(&make_bf_tree, &expect_rel, N, &records[1..]);
    for &k in &watched_keys() {
        assert_eq!(
            sorted_probe(&recovered, k, &rel),
            sorted_probe(expect.as_ref(), k, &expect_rel),
            "probe({k}) diverged when recovering from the on-disk log",
        );
    }
}

// ------------------------------------------------------------------
// Sharded recovery: a fleet of independent WALs, each cut elsewhere.
// ------------------------------------------------------------------

const SHARD_DOMAIN: u64 = 6_000;
const SHARD_BASE: u64 = 3_000;

/// Even primary keys only, so every odd key is free for fresh inserts
/// anywhere in the domain — each shard can take writes to its own
/// slice without colliding with the base relation.
fn sharded_relation() -> Relation {
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for i in 0..SHARD_BASE {
        heap.append_record(2 * i, i);
    }
    Relation::new(heap, PK_OFFSET, Duplicates::Unique).expect("conventional layout")
}

/// The routed script: shard `s` (keys `[2000s, 2000(s+1))`) receives
/// `3(s+1)` fresh odd-key inserts and `s+1` deletes of even base keys
/// it owns (stride 148 — never reinserted), so the three WALs end at
/// genuinely different positions.
fn sharded_script() -> Vec<WalRecord> {
    let mut ops = Vec::new();
    for s in 0..3u64 {
        let lo = 2_000 * s;
        for i in 0..3 * (s + 1) {
            ops.push(WalRecord::Insert {
                key: lo + 2 * i + 1,
                page: 0,
                slot: 0,
            });
        }
        for d in 0..=s {
            ops.push(WalRecord::Delete {
                key: lo + 1_000 + 148 * d,
            });
        }
    }
    ops
}

fn sharded_factory(rel: &Relation) -> impl FnMut(usize) -> Box<dyn AccessMethod> + '_ {
    |_| {
        Box::new(
            BfTree::builder()
                .fpp(1e-4)
                .empty(rel)
                .expect("valid config"),
        )
    }
}

fn sharded_probe(index: &ShardedIndex, keys: &[u64], rel: &Relation) -> Vec<Vec<(PageId, usize)>> {
    let ios: Vec<IoContext> = (0..index.shard_count())
        .map(|_| IoContext::unmetered())
        .collect();
    index
        .probe_batch_sharded(keys, rel, &ios)
        .expect("scatter-gather probe")
        .into_iter()
        .map(|p| {
            let mut m = p.matches;
            m.sort_unstable();
            m
        })
        .collect()
}

/// Drain a full paginated range scan — every page, token to token —
/// so the comparison also walks continuations across shard boundaries.
fn sharded_drain(index: &ShardedIndex, rel: &Relation) -> Vec<(PageId, usize)> {
    let ios: Vec<IoContext> = (0..index.shard_count())
        .map(|_| IoContext::unmetered())
        .collect();
    let mut all = Vec::new();
    let mut token = None;
    loop {
        let (matches, next, _) = index
            .range_page(0, SHARD_DOMAIN * 2, 61, token.as_ref(), rel, &ios)
            .expect("paginated scan");
        all.extend(matches);
        match next {
            Some(t) => token = Some(t),
            None => break,
        }
    }
    all.sort_unstable();
    all
}

/// The multi-shard kill-test: three shards run routed writes to
/// different WAL positions, the crash leaves each shard's log cut at a
/// *different* record boundary (one loses nothing, one loses half, one
/// loses everything past genesis), and [`ShardedIndex::recover_all`]
/// must reassemble a fleet whose merged answers — scatter-gather
/// probes and token-paginated range scans alike — match a sharded
/// oracle with exactly the surviving per-shard prefixes applied
/// directly.
#[test]
fn shards_cut_at_different_wal_positions_recover_to_the_merged_view() {
    let mut rel = sharded_relation();
    let mut index = ShardedIndex::new(
        ShardPlan::uniform(SHARD_DOMAIN, 3),
        &rel,
        config(),
        sharded_factory(&sharded_relation()),
        |_| PageDevice::cold(DeviceKind::Ssd),
    );
    index.build(&rel).expect("base build");
    let io = IoContext::unmetered();
    for op in sharded_script() {
        match op {
            WalRecord::Insert { key, .. } => {
                let loc = rel.append_tuple(key, key, &io);
                index.route_insert(key, loc, &rel).expect("routed insert");
            }
            WalRecord::Delete { key } => {
                index.route_delete(key, &rel).expect("routed delete");
            }
            WalRecord::Checkpoint { .. } => unreachable!("script has no checkpoints"),
        }
    }

    // The crash: capture each shard's log image and cut shard `s` at
    // its own boundary — shard 0 keeps everything, shard 1 half its
    // operations, shard 2 only the genesis checkpoint.
    let mut images = Vec::new();
    let mut surviving: Vec<Vec<(usize, WalRecord)>> = Vec::new();
    for s in 0..3 {
        let image = index.with_shard(s, |st| st.wal().bytes().to_vec());
        let (records, tail) = WalReader::drain(&image);
        assert_eq!(tail, TailState::Clean, "shard {s}: uncrashed log parses");
        let cut = match s {
            0 => records.len() - 1,
            1 => records.len() / 2,
            _ => 0,
        };
        // `records[i].0` is the boundary where record `i` ends, so
        // truncating there keeps records `0..=i`.
        let boundary = records[cut].0;
        assert!(
            s == 0 || boundary < image.len(),
            "shard {s}'s cut must actually lose records"
        );
        images.push(image[..boundary].to_vec());
        surviving.push(records[1..=cut].to_vec());
    }

    // The relation the crash leaves: every routed tuple, none dead.
    let rel = crash_relation(sharded_relation(), &sharded_script());
    let oracle_rel = rel.clone();
    let (recovered, reports) = ShardedIndex::recover_all(
        ShardPlan::uniform(SHARD_DOMAIN, 3),
        &rel,
        config(),
        sharded_factory(&sharded_relation()),
        &images,
        |_| PageDevice::cold(DeviceKind::Ssd),
    )
    .expect("every shard recovers from its own cut");
    for (s, report) in reports.iter().enumerate() {
        assert_eq!(report.tail, TailState::Clean, "shard {s}");
        assert_eq!(report.base_tuples, SHARD_BASE, "shard {s}");
        let (wants_i, wants_d) = surviving[s].iter().fold((0, 0), |(i, d), &(_, r)| match r {
            WalRecord::Insert { .. } => (i + 1, d),
            WalRecord::Delete { .. } => (i, d + 1),
            WalRecord::Checkpoint { .. } => (i, d),
        });
        assert_eq!(report.replayed_inserts, wants_i, "shard {s}");
        assert_eq!(report.replayed_deletes, wants_d, "shard {s}");
    }

    // The oracle: a fresh fleet over the base heap prefix with each
    // shard's surviving records routed in directly — never from log
    // bytes — over its own copy of the crashed relation.
    let base_rel = Relation::new(
        oracle_rel.heap().truncated(SHARD_BASE),
        oracle_rel.attr(),
        oracle_rel.duplicates(),
    )
    .expect("base prefix is a valid relation");
    let mut oracle = ShardedIndex::new(
        ShardPlan::uniform(SHARD_DOMAIN, 3),
        &base_rel,
        config(),
        sharded_factory(&sharded_relation()),
        |_| PageDevice::cold(DeviceKind::Ssd),
    );
    oracle.build(&base_rel).expect("oracle build");
    for per_shard in &surviving {
        for &(_, rec) in per_shard {
            match rec {
                WalRecord::Insert { key, page, slot } => oracle
                    .route_insert(key, (page, slot as usize), &oracle_rel)
                    .expect("oracle insert"),
                WalRecord::Delete { key } => {
                    oracle
                        .route_delete(key, &oracle_rel)
                        .expect("oracle delete");
                }
                WalRecord::Checkpoint { .. } => {}
            }
        }
    }

    let mut keys: Vec<u64> = sharded_script()
        .iter()
        .map(|r| match *r {
            WalRecord::Insert { key, .. } | WalRecord::Delete { key } => key,
            WalRecord::Checkpoint { .. } => unreachable!("script has no checkpoints"),
        })
        .collect();
    keys.extend((0..SHARD_DOMAIN).step_by(607));
    keys.push(SHARD_DOMAIN * 3);
    assert_eq!(
        sharded_probe(&recovered, &keys, &rel),
        sharded_probe(&oracle, &keys, &oracle_rel),
        "merged probe answers diverged from the direct-apply oracle",
    );
    assert_eq!(
        sharded_drain(&recovered, &rel),
        sharded_drain(&oracle, &oracle_rel),
        "merged paginated scan diverged from the direct-apply oracle",
    );
}

#[test]
fn recovery_without_a_genesis_checkpoint_is_rejected() {
    let Crashed { rel, image, .. } = run_script(&make_bf_tree);
    let (all_records, _) = WalReader::drain(&image);
    let genesis_end = all_records[0].0;
    for bad in [&image[..0], &image[..genesis_end - 1]] {
        let err = DurableIndex::recover(
            make_bf_tree(),
            &rel,
            bad,
            PageDevice::cold(DeviceKind::Ssd),
            config(),
        )
        .err()
        .expect("no genesis, no recovery");
        assert!(
            matches!(err, RecoverError::MissingGenesis),
            "unexpected error: {err}"
        );
    }
}
