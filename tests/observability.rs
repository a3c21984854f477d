//! Observability conformance: recording must be a pure observer.
//!
//! The contract this suite enforces, for every index and for the
//! durable write path: arming span/counter recording changes **no
//! observable I/O** — the `IoSnapshot` of an instrumented run is
//! bit-identical to the uninstrumented run's — while the recorded
//! span tree accounts for every device read exactly once, serializes
//! to balanced Chrome-trace JSON, and the metrics registry renders
//! every family the stack registers.
//!
//! Recording is a process-wide flag, so every test that arms it
//! serializes on [`gate`] and disarms before releasing.

use std::sync::{Mutex, MutexGuard};

use bftree::BfTree;
use bftree_access::{AccessMethod, DurableConfig, DurableIndex};
use bftree_bench::{build_index, IndexKind};
use bftree_obs::{
    check_balanced, chrome_trace_json, root_device_reads, MetricsRegistry, QueryTrace,
};
use bftree_storage::tuple::PK_OFFSET;
use bftree_storage::{
    DeviceKind, Duplicates, HeapFile, IoContext, IoSnapshot, PageDevice, Relation, StorageConfig,
    TupleLayout,
};
use bftree_wal::{DurabilityMode, TailState};

const N: u64 = 4_000;

/// Serializes tests that toggle the process-wide recording flag.
fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn relation() -> Relation {
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for pk in 0..N {
        heap.append_record(pk, pk);
    }
    Relation::new(heap, PK_OFFSET, Duplicates::Unique).expect("conventional layout")
}

/// Hits, misses, and out-of-domain keys in decorrelated order.
fn workload(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(2654435761).wrapping_add(0x0B5) % (N * 2))
        .collect()
}

/// The probe/batch/range mix every index runs under both recording
/// states. Returns the run's whole I/O footprint.
fn drive(index: &dyn AccessMethod, rel: &Relation) -> IoSnapshot {
    let io = IoContext::cold(StorageConfig::SsdSsd);
    let keys = workload(600);
    for &key in &keys {
        let _ = index.probe(key, rel, &io).expect("valid relation");
    }
    for chunk in keys.chunks(64) {
        index.probe_batch(chunk, rel, &io).expect("valid relation");
    }
    let _ = index
        .range_scan(N / 4, N / 2, rel, &io)
        .expect("valid range");
    io.snapshot_total()
}

/// The acceptance-criteria battery: for every index kind, the probe /
/// batch / range workload produces a bit-identical `IoSnapshot`
/// whether recording is armed or not. Instrumentation observes the
/// I/O; it must never become part of it.
#[test]
fn recording_on_and_off_produce_bit_identical_io() {
    let _gate = gate();
    let rel = relation();
    for kind in IndexKind::ALL {
        let index = build_index(kind, &rel, 1e-3);

        bftree_obs::set_recording(false);
        let off = drive(index.as_ref(), &rel);

        bftree_obs::set_recording(true);
        let on = drive(index.as_ref(), &rel);
        bftree_obs::set_recording(false);
        bftree_obs::drain_spans();

        assert_eq!(off, on, "{}: recording changed the run's I/O", kind.label());
        assert!(off.device_reads() > 0, "{}: degenerate run", kind.label());
    }
}

/// Same contract on the durable write path: WAL device counters and
/// the run's `IoSnapshot` are unchanged by recording.
#[test]
fn recording_leaves_the_durable_write_path_bit_identical() {
    let _gate = gate();
    let run = || -> (IoSnapshot, IoSnapshot, u64) {
        let mut rel = relation();
        let inner = BfTree::builder().fpp(1e-3).build(&rel).expect("valid");
        let mut index = DurableIndex::new(
            inner,
            &rel,
            PageDevice::cold(DeviceKind::Ssd),
            DurableConfig {
                flush_batch: 64,
                durability: DurabilityMode::GroupCommit {
                    max_records: 16,
                    max_bytes: 4 * 1024,
                },
            },
        );
        let io = IoContext::cold(StorageConfig::SsdSsd);
        for i in 0..500u64 {
            let key = N + i;
            let loc = rel.append_tuple(key, key, &io);
            index.insert(key, loc, &rel).expect("valid relation");
            let _ = index.probe(i * 7 % N, &rel, &io).expect("valid relation");
        }
        index.flush(&rel).expect("final drain");
        let log = index.wal().device().snapshot();
        (io.snapshot_total(), log, index.wal().record_count())
    };

    bftree_obs::set_recording(false);
    let off = run();
    bftree_obs::set_recording(true);
    let on = run();
    bftree_obs::set_recording(false);
    bftree_obs::drain_spans();

    assert_eq!(off, on, "recording changed the durable write path's I/O");
}

/// The span tree accounts for every device read exactly once (root
/// spans sum to the `IoSnapshot` total), and its Chrome-trace
/// serialization is balanced — over a window that holds the read
/// workload on a bare BF-Tree and, through a group-commit
/// `DurableIndex`, WAL appends, fsyncs, memtable flushes, the same
/// reads again and a replay of the log into a fresh tree.
#[test]
fn span_tree_reconciles_with_io_and_serializes_balanced() {
    let _gate = gate();
    let rel = relation();
    let index = build_index(IndexKind::BfTree, &rel, 1e-3);
    let mut grown = rel.clone();
    let mut durable = DurableIndex::new(
        BfTree::builder().fpp(1e-3).build(&grown).expect("valid"),
        &grown,
        PageDevice::cold(DeviceKind::Ssd),
        DurableConfig {
            flush_batch: 64,
            durability: DurabilityMode::GroupCommit {
                max_records: 16,
                max_bytes: 4 * 1024,
            },
        },
    );

    bftree_obs::drain_spans(); // discard anything a prior test left
    bftree_obs::set_recording(true);
    let mut total = drive(index.as_ref(), &rel);
    let io = IoContext::cold(StorageConfig::SsdSsd);
    for key in N..N + 200 {
        let loc = grown.append_tuple(key, key, &io);
        durable.insert(key, loc, &grown).expect("valid relation");
    }
    durable.flush(&grown).expect("final drain");
    total = total.plus(&io.snapshot_total());
    total = total.plus(&drive(&durable, &grown));
    let (_, recovery) = DurableIndex::recover(
        BfTree::builder().fpp(1e-3).build(&rel).expect("valid"),
        &grown,
        durable.wal().bytes(),
        PageDevice::cold(DeviceKind::Ssd),
        durable.config(),
    )
    .expect("recover from own log");
    assert_eq!(recovery.tail, TailState::Clean);
    bftree_obs::set_recording(false);
    let spans = bftree_obs::drain_spans();

    assert!(!spans.is_empty(), "recording produced no spans");
    assert_eq!(
        root_device_reads(&spans),
        total.device_reads(),
        "every device read must land under exactly one root span"
    );
    let trace = chrome_trace_json(&spans);
    let pairs = check_balanced(&trace).expect("trace must be balanced");
    assert_eq!(pairs, spans.len() as u64, "one B/E pair per span");
    for name in [
        "probe",
        "batch-probe",
        "range-page-pull",
        "wal-append",
        "fsync",
        "memtable-flush",
        "recovery-replay",
    ] {
        assert!(
            trace.contains(&format!("\"name\":\"{name}\"")),
            "workload must produce {name} spans"
        );
    }
}

/// A `QueryTrace` attributes exactly the bracketed work, and the
/// attribution sums across a stream of queries.
#[test]
fn query_traces_partition_the_probe_streams_reads() {
    let _gate = gate();
    let rel = relation();
    let index = build_index(IndexKind::BfTree, &rel, 1e-3);
    let io = IoContext::cold(StorageConfig::SsdSsd);

    bftree_obs::set_recording(true);
    let mut attributed = 0u64;
    for &key in &workload(400) {
        let t = QueryTrace::begin(1.0);
        let _ = index.probe(key, &rel, &io).expect("valid relation");
        attributed += t.finish().counters.device_reads;
    }
    bftree_obs::set_recording(false);
    bftree_obs::drain_spans();

    assert_eq!(
        attributed,
        io.snapshot_total().device_reads(),
        "per-query attribution must partition the stream's device reads"
    );
}

/// Every family the stack registers shows up in one registry's
/// Prometheus rendering, and the JSON snapshot agrees on the values.
#[test]
fn metrics_registry_renders_every_family() {
    let mut rel = relation();
    let inner = BfTree::builder().fpp(1e-3).build(&rel).expect("valid");
    let mut index = DurableIndex::new(
        inner,
        &rel,
        PageDevice::cold(DeviceKind::Ssd),
        DurableConfig {
            flush_batch: 8,
            durability: DurabilityMode::PerRecord,
        },
    );
    let io = IoContext::cold(StorageConfig::SsdSsd);
    for i in 0..20u64 {
        let key = N + i;
        let loc = rel.append_tuple(key, key, &io);
        index.insert(key, loc, &rel).expect("valid relation");
        let _ = index.probe(i, &rel, &io).expect("valid relation");
    }
    index.flush(&rel).expect("drain");

    let image = index.wal().bytes().to_vec();
    let (_, report) = DurableIndex::recover(
        BfTree::builder().fpp(1e-3).build(&rel).expect("valid"),
        &rel,
        &image,
        PageDevice::cold(DeviceKind::Ssd),
        index.config(),
    )
    .expect("recover from own log");
    assert_eq!(report.tail, TailState::Clean);
    assert_eq!(report.replayed_records(), 20);
    assert!(report.bytes_replayed > 0, "replay consumed log bytes");
    assert!(report.records_per_sec() > 0.0, "replay rate is a rate");

    let mut reg = MetricsRegistry::new();
    io.snapshot_total().register_metrics(&mut reg, "run");
    reg.collect_from(&index);
    reg.collect_from(&report);
    let text = reg.render_prometheus();
    for family in [
        "bftree_io_random_reads_total{device=\"run\"}",
        "bftree_wal_records_total{mode=\"per-record\"}",
        "bftree_durable_flushes_total",
        "bftree_recovery_replayed_inserts_total",
        "bftree_recovery_records_per_sec",
        "bftree_recovery_tail_clean 1",
    ] {
        assert!(
            text.contains(family),
            "missing from rendering: {family}\n{text}"
        );
    }
    assert_eq!(
        reg.value("bftree_recovery_replayed_inserts_total", &[("", ""); 0]),
        Some(20.0),
        "JSON/value view agrees with the report"
    );
    assert!(reg
        .to_json()
        .contains("bftree_recovery_bytes_replayed_total"));
}
