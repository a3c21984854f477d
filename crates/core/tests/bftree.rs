//! Behavioural tests of the BF-Tree against heap files, covering
//! Algorithms 1–3, range scans, deletes and the paper's size claims —
//! all through the unified `AccessMethod`/`Relation`/`IoContext`
//! surface.

use bftree::scan::exact_range_pages;
use bftree::{AccessMethod, BfTree, BfTreeConfig, BitAllocation, KStrategy, SplitStrategy};
use bftree_bloom::hash::xxh64;
use bftree_storage::tuple::{ATT1_OFFSET, PK_OFFSET};
use bftree_storage::{
    DeviceKind, Duplicates, HeapFile, IoContext, PageDevice, Relation, TupleLayout,
};

/// The paper's synthetic relation R scaled down: 256 B tuples, unique
/// ordered PK, ATT1 repeating `avgcard` times.
fn synthetic(n: u64, avgcard: u64) -> HeapFile {
    let mut h = HeapFile::new(TupleLayout::new(256));
    for pk in 0..n {
        h.append_record(pk, pk / avgcard);
    }
    h
}

fn pk_relation(n: u64, avgcard: u64) -> Relation {
    Relation::new(synthetic(n, avgcard), PK_OFFSET, Duplicates::Unique).unwrap()
}

#[test]
fn pk_probe_finds_every_key() {
    let rel = pk_relation(50_000, 11);
    let io = IoContext::unmetered();
    let t = BfTree::builder().fpp(1e-4).build(&rel).unwrap();
    t.check_invariants();
    for pk in (0..50_000u64).step_by(333) {
        let r = AccessMethod::probe_first(&t, pk, &rel, &io).unwrap();
        assert_eq!(r.matches.len(), 1, "pk {pk}");
        let (pid, slot) = r.matches[0];
        assert_eq!(rel.heap().attr(pid, slot, PK_OFFSET), pk);
    }
}

/// Keys strided by 2^32 (their low 32 bits all zero) bulk-load into
/// a `Unique` tree that finds every one of them: the distinct-key set
/// behind the load hashes them apart.
#[test]
fn strided_unique_keys_bulk_load_and_probe_back() {
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for i in 0..65_536u64 {
        heap.append_record(i << 32, i);
    }
    let rel = Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap();
    let io = IoContext::unmetered();
    let t = BfTree::builder().build(&rel).unwrap();
    t.check_invariants();
    assert_eq!(t.n_keys(), 65_536);
    for i in 0..65_536u64 {
        let r = AccessMethod::probe_first(&t, i << 32, &rel, &io).unwrap();
        assert_eq!(r.matches.len(), 1, "key {i} << 32");
        let (pid, slot) = r.matches[0];
        assert_eq!(rel.heap().attr(pid, slot, ATT1_OFFSET), i);
    }
}

#[test]
fn negative_probe_outside_key_range_reads_nothing() {
    let rel = pk_relation(10_000, 11);
    let io = IoContext::unmetered();
    let t = BfTree::builder().build(&rel).unwrap();
    let r = AccessMethod::probe(&t, 1_000_000, &rel, &io).unwrap();
    assert!(!r.found());
    assert_eq!(r.pages_read, 0, "key range check must short-circuit");
}

#[test]
fn negative_probe_inside_range_costs_only_false_positives() {
    // Index even PKs only? Not expressible on a heap; instead probe a
    // dense key range where half the keys are absent by building data
    // with stride 2.
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for pk in 0..20_000u64 {
        heap.append_record(pk * 2, pk);
    }
    let rel = Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap();
    let io = IoContext::unmetered();
    let t = BfTree::builder().fpp(1e-3).build(&rel).unwrap();
    let mut false_reads = 0u64;
    let probes = 2_000u64;
    for i in 0..probes {
        let key = i * 2 + 1; // absent
        let r = AccessMethod::probe(&t, key, &rel, &io).unwrap();
        assert!(!r.found());
        false_reads += r.pages_read;
    }
    // With fpp 1e-3 and ~130 filters per leaf, well under one false
    // read per probe on average.
    assert!(
        (false_reads as f64 / probes as f64) < 1.0,
        "{false_reads} false reads over {probes} probes"
    );
}

#[test]
fn att1_probe_returns_all_duplicates() {
    let rel = Relation::new(synthetic(30_000, 11), ATT1_OFFSET, Duplicates::Contiguous).unwrap();
    let io = IoContext::unmetered();
    let t = BfTree::builder()
        .fpp(1e-6)
        .duplicates(bftree::DuplicateHandling::AllCoveringPages)
        .build(&rel)
        .unwrap();
    t.check_invariants();
    for key in (0..30_000u64 / 11).step_by(97) {
        let r = AccessMethod::probe(&t, key, &rel, &io).unwrap();
        let expected = rel
            .heap()
            .iter_attr(ATT1_OFFSET)
            .filter(|(_, _, v)| *v == key)
            .count();
        assert_eq!(r.matches.len(), expected, "key {key}");
    }
}

#[test]
fn size_is_orders_of_magnitude_below_btree() {
    use bftree_btree::{BPlusTree, BTreeConfig, TupleRef};
    let rel = pk_relation(200_000, 11);
    let bf = BfTree::builder().fpp(0.01).build(&rel).unwrap();
    let bp = BPlusTree::bulk_build(
        BTreeConfig::paper_default(),
        rel.heap()
            .iter_attr(PK_OFFSET)
            .map(|(pid, slot, k)| (k, TupleRef::new(pid, slot))),
    );
    let gain = bp.total_pages() as f64 / bf.total_pages() as f64;
    assert!(gain > 5.0, "capacity gain only {gain:.2}x");
}

#[test]
fn lower_fpp_means_bigger_tree_and_fewer_false_reads() {
    let rel = pk_relation(100_000, 11);
    let io = IoContext::unmetered();
    let mut sizes = Vec::new();
    let mut false_rates = Vec::new();
    for &fpp in &[0.2, 1e-3, 1e-9] {
        let t = BfTree::builder().fpp(fpp).build(&rel).unwrap();
        sizes.push(t.total_pages());
        let mut fr = 0u64;
        for pk in (0..100_000u64).step_by(501) {
            fr += AccessMethod::probe_first(&t, pk, &rel, &io)
                .unwrap()
                .false_reads;
        }
        false_rates.push(fr);
    }
    assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2], "{sizes:?}");
    assert!(
        false_rates[0] >= false_rates[1] && false_rates[1] >= false_rates[2],
        "{false_rates:?}"
    );
}

#[test]
fn device_charging_follows_algorithm_1() {
    let rel = pk_relation(100_000, 11);
    let t = BfTree::builder().fpp(1e-6).build(&rel).unwrap();
    let io = IoContext::new(
        PageDevice::cold(DeviceKind::Ssd),
        PageDevice::cold(DeviceKind::Hdd),
    );
    let r = AccessMethod::probe_first(&t, 4_242, &rel, &io).unwrap();
    assert!(r.found());
    // Index: upper-structure height + 1 BF-leaf read.
    assert_eq!(io.index.snapshot().random_reads as usize, t.height());
    // Data: exactly the pages the probe reports.
    assert_eq!(io.data.snapshot().device_reads(), r.pages_read);
}

#[test]
fn inserts_into_fresh_tree_are_searchable() {
    let heap = HeapFile::new(TupleLayout::new(256));
    let mut rel = Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap();
    let io = IoContext::unmetered();
    let mut t = BfTree::builder().fpp(1e-4).empty(&rel).unwrap();
    for pk in 0..5_000u64 {
        let loc = rel.append_tuple(pk, pk / 11, &IoContext::unmetered());
        AccessMethod::insert(&mut t, pk, loc, &rel).unwrap();
    }
    t.check_invariants();
    assert!(t.leaf_pages() > 1, "tree should have split");
    for pk in (0..5_000u64).step_by(97) {
        let r = AccessMethod::probe_first(&t, pk, &rel, &io).unwrap();
        assert_eq!(r.matches.len(), 1, "pk {pk}");
    }
}

#[test]
fn probe_domain_split_matches_rebuild_split_results() {
    // Same insert stream under both strategies must index the same
    // keys (ProbeDomain may add extra false positives, never misses).
    let rel = pk_relation(3_000, 11);
    let io = IoContext::unmetered();
    let builder = BfTree::builder().fpp(1e-3);
    let mut rebuild = builder
        .clone()
        .split(SplitStrategy::RebuildFromData)
        .empty(&rel)
        .unwrap();
    let mut probing = builder
        .split(SplitStrategy::ProbeDomain)
        .empty(&rel)
        .unwrap();
    for (pid, slot, pk) in rel.heap().iter_attr(PK_OFFSET) {
        AccessMethod::insert(&mut rebuild, pk, (pid, slot), &rel).unwrap();
        probing.insert_batch(&[(pk, pid)], None, PK_OFFSET);
    }
    rebuild.check_invariants();
    probing.check_invariants();
    for pk in (0..3_000u64).step_by(41) {
        assert!(
            AccessMethod::probe_first(&rebuild, pk, &rel, &io)
                .unwrap()
                .found(),
            "rebuild lost {pk}"
        );
        assert!(
            AccessMethod::probe_first(&probing, pk, &rel, &io)
                .unwrap()
                .found(),
            "probing lost {pk}"
        );
    }
}

#[test]
fn delete_tombstones_then_rebuild() {
    let rel = pk_relation(5_000, 11);
    let io = IoContext::unmetered();
    let mut t = BfTree::builder().fpp(1e-6).build(&rel).unwrap();
    assert!(AccessMethod::probe_first(&t, 100, &rel, &io)
        .unwrap()
        .found());
    assert!(AccessMethod::delete(&mut t, 100, &rel).unwrap() > 0);
    let r = AccessMethod::probe_first(&t, 100, &rel, &io).unwrap();
    assert!(!r.found(), "tombstoned key still matches");
    assert!(
        r.false_reads > 0,
        "deleted key's pages count as false reads"
    );
    // Rebuild drops the tombstone from the filters entirely.
    t.rebuild_leaf(0, rel.heap(), PK_OFFSET);
    let r = AccessMethod::probe_first(&t, 100, &rel, &io).unwrap();
    assert!(!r.found());
    t.check_invariants();
}

/// A PK relation over keys 10..5 010, leaving 0..=9 below every leaf.
fn above_ten() -> Relation {
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for pk in 10..5_010u64 {
        heap.append_record(pk, pk / 11);
    }
    Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap()
}

/// Every read of `index` over `above_ten()` plus key 5 at `loc` finds
/// key 5 there alone: `probe`, `probe_first`, `probe_batch` beside a
/// live and an absent key, and `range_scan` over `[0, 9]`.
fn every_read_finds_key_5(index: &dyn AccessMethod, loc: (u64, usize), rel: &Relation, case: &str) {
    let io = IoContext::unmetered();
    let probe = index.probe(5, rel, &io).unwrap();
    assert_eq!(probe.matches, vec![loc], "{case}: probe");
    let first = index.probe_first(5, rel, &io).unwrap();
    assert_eq!(first.matches, vec![loc], "{case}: probe_first");
    let batch: Vec<_> = (index.probe_batch(&[5, 10, 7, 5], rel, &io).unwrap())
        .into_iter()
        .map(|p| p.matches)
        .collect();
    assert_eq!(
        batch,
        [vec![loc], vec![(0, 0)], vec![], vec![loc]],
        "{case}: probe_batch"
    );
    let scan = index.range_scan(0, 9, rel, &io).unwrap();
    assert_eq!(scan.matches, vec![loc], "{case}: range_scan");
}

/// Index key 5 into a PK tree over keys 10..5 010: it routes to the
/// first leaf, below the leaf's keys, and every read finds it there,
/// `scan_range_probing` included. While the first leaf routed at its
/// smallest key, no probe of 5 found a leaf, and a range scan
/// returned the key the probe missed.
#[test]
fn a_key_inserted_below_every_leaf_is_found_by_every_read() {
    let (mut rel, io) = (above_ten(), IoContext::unmetered());
    let mut t = BfTree::builder().fpp(1e-4).build(&rel).unwrap();
    let loc = rel.append_tuple(5, 8, &io);
    assert_eq!(loc, (312, 8));
    AccessMethod::insert(&mut t, 5, loc, &rel).unwrap();
    every_read_finds_key_5(&t, loc, &rel, "bare tree");
    let probing = t.scan_range_probing(0, 9, &rel, &io).unwrap();
    assert_eq!(probing.matches, vec![loc], "scan_range_probing");
    t.check_heap_invariants(&rel);
}

/// The same through `DurableIndex<BfTree>`, once the insert is flushed
/// into the base tree, and after `recover` from the log.
#[test]
fn a_durable_key_inserted_below_every_leaf_is_found_after_flush_and_recover() {
    use bftree_access::{DurableConfig, DurableIndex};
    let (mut rel, io) = (above_ten(), IoContext::unmetered());
    let config = DurableConfig::default();
    let tree = BfTree::builder().fpp(1e-4).build(&rel).unwrap();
    let mut idx = DurableIndex::new(tree, &rel, PageDevice::cold(DeviceKind::Ssd), config);
    let loc = rel.append_tuple(5, 8, &io);
    idx.insert(5, loc, &rel).unwrap();
    idx.flush(&rel).unwrap();
    every_read_finds_key_5(&idx, loc, &rel, "flushed");
    let probing = idx.inner().scan_range_probing(0, 9, &rel, &io).unwrap();
    assert_eq!(probing.matches, vec![loc], "flushed: scan_range_probing");
    idx.inner().check_heap_invariants(&rel);

    let mut crashed = above_ten();
    assert_eq!(crashed.append_tuple(5, 8, &io), loc);
    let image = idx.wal().bytes().to_vec();
    let empty = BfTree::builder().fpp(1e-4).empty(&crashed).unwrap();
    let cold = PageDevice::cold(DeviceKind::Ssd);
    let (mut recovered, _) = DurableIndex::recover(empty, &crashed, &image, cold, config).unwrap();
    recovered.flush(&crashed).unwrap();
    every_read_finds_key_5(&recovered, loc, &crashed, "recovered");
    let probing = recovered.inner().scan_range_probing(0, 9, &crashed, &io);
    assert_eq!(
        probing.unwrap().matches,
        vec![loc],
        "recovered: scan_range_probing"
    );
    recovered.inner().check_heap_invariants(&crashed);
}

/// Delete key 100 of a 5 000-key PK tree, then append and index key
/// 100 again: probes and scans find the new tuple alone. A per-key
/// tombstone revived the old tuple, `(6, 4)`, once the key was
/// inserted again.
#[test]
fn a_key_inserted_again_after_its_delete_is_found_alone() {
    let mut rel = pk_relation(5_000, 11);
    let io = IoContext::unmetered();
    let mut t = BfTree::builder().fpp(1e-6).build(&rel).unwrap();
    assert_eq!(AccessMethod::delete(&mut t, 100, &rel), Ok(1));
    let loc = rel.append_tuple(100, 8, &io);
    assert_eq!(loc, (312, 8));
    AccessMethod::insert(&mut t, 100, loc, &rel).unwrap();
    assert_eq!(
        AccessMethod::probe(&t, 100, &rel, &io).unwrap().matches,
        vec![loc]
    );
    let mut scan = AccessMethod::range_scan(&t, 99, 101, &rel, &io)
        .unwrap()
        .matches;
    scan.sort_unstable();
    assert_eq!(scan, vec![(6, 3), (6, 5), loc]);
    t.check_heap_invariants(&rel);
}

/// The same through `DurableIndex<BfTree>`, with the re-insert
/// buffered (and flushed by hand), flushed at once after the delete,
/// and flushed together with it; and after `recover` from the log,
/// whose replay flushes where the run did.
#[test]
fn a_durable_key_inserted_again_after_its_delete_is_found_alone() {
    use bftree_access::{DurableConfig, DurableIndex};
    for flush_batch in [1_000, 1, 2] {
        let mut rel = pk_relation(5_000, 11);
        let io = IoContext::unmetered();
        let config = DurableConfig {
            flush_batch,
            ..DurableConfig::default()
        };
        let tree = BfTree::builder().fpp(1e-6).build(&rel).unwrap();
        let mut idx = DurableIndex::new(tree, &rel, PageDevice::cold(DeviceKind::Ssd), config);
        assert_eq!(idx.delete(100, &rel), Ok(1));
        let loc = rel.append_tuple(100, 8, &io);
        idx.insert(100, loc, &rel).unwrap();
        let probe =
            |index: &dyn AccessMethod, rel: &Relation| index.probe(100, rel, &io).unwrap().matches;
        let case = format!("flush batch {flush_batch}");
        assert_eq!(probe(&idx, &rel), vec![loc], "{case}: as written");
        idx.flush(&rel).unwrap();
        assert_eq!(probe(&idx, &rel), vec![loc], "{case}: flushed");
        idx.inner().check_heap_invariants(&rel);

        // A crash keeps the tuples but no delete mark: the replay must
        // delete the old tuple again.
        let mut crashed = pk_relation(5_000, 11);
        assert_eq!(crashed.append_tuple(100, 8, &io), loc);
        let image = idx.wal().bytes().to_vec();
        let empty = BfTree::builder().fpp(1e-6).empty(&crashed).unwrap();
        let cold = PageDevice::cold(DeviceKind::Ssd);
        let (recovered, _) = DurableIndex::recover(empty, &crashed, &image, cold, config).unwrap();
        assert_eq!(probe(&recovered, &crashed), vec![loc], "{case}: recovered");
    }
}

#[test]
fn range_scan_finds_exact_matches_with_bounded_overhead() {
    let rel = pk_relation(50_000, 1);
    let io = IoContext::unmetered();
    let t = BfTree::builder().fpp(1e-6).build(&rel).unwrap();
    let (lo, hi) = (10_000u64, 20_000u64);
    let r = AccessMethod::range_scan(&t, lo, hi, &rel, &io).unwrap();
    assert_eq!(r.matches.len() as u64, hi - lo + 1);
    // The ordered walk seeks `lo`'s page through the filters and stops
    // past `hi`: every page read either holds a match or is overhead
    // (a seek false positive, or the one page that proves the range
    // ended), and at fpp 1e-6 there is almost none of the latter.
    let exact = exact_range_pages(rel.heap(), PK_OFFSET, lo, hi);
    assert_eq!(r.pages_read, exact + r.overhead_pages);
    assert!(r.overhead_pages <= 2, "overhead {} pages", r.overhead_pages);
}

/// A split leaves two siblings sharing one data page. Keys step by 2,
/// so a value between the two leaves' key ranges is absent.
/// - A range starting in that gap begins at the left leaf, which holds
///   nothing of it: the walk skips that leaf but must still read the
///   shared page for the right leaf.
/// - A key on the shared page tombstoned in the right leaf must be
///   dropped even when the walk reads that page through the left leaf,
///   as `probe` drops it.
#[test]
fn range_scans_around_a_page_shared_by_split_siblings() {
    let heap = HeapFile::new(TupleLayout::new(256));
    let mut rel = Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap();
    let io = IoContext::unmetered();
    let mut t = BfTree::builder().fpp(1e-4).empty(&rel).unwrap();
    for pk in (0..10_000u64).step_by(2) {
        let loc = rel.append_tuple(pk, pk, &IoContext::unmetered());
        AccessMethod::insert(&mut t, pk, loc, &rel).unwrap();
    }
    let leaves = t.leaves();
    let (left, right) = leaves
        .iter()
        .filter_map(|l| Some((l, &leaves[l.next? as usize])))
        .find(|(l, r)| l.max_pid == r.min_pid)
        .expect("a split shares a boundary page");
    let heap = rel.heap();
    assert!(
        (0..heap.tuples_in_page(right.min_pid)).any(|slot| heap.attr(
            right.min_pid,
            slot,
            PK_OFFSET
        ) == right.min_key),
        "the shared page holds the right leaf's first key"
    );
    let (gap, key) = (left.max_key + 1, right.min_key);
    let keys_in = |t: &BfTree, lo: u64, hi: u64| -> Vec<u64> {
        AccessMethod::range_scan(t, lo, hi, &rel, &io)
            .unwrap()
            .matches
            .iter()
            .map(|&(pid, slot)| rel.heap().attr(pid, slot, PK_OFFSET))
            .collect()
    };
    let evens_but = |lo: u64, hi: u64, skip: u64| -> Vec<u64> {
        (lo..=hi).filter(|&k| k % 2 == 0 && k != skip).collect()
    };
    assert_eq!(
        keys_in(&t, gap, key + 40),
        evens_but(gap, key + 40, u64::MAX)
    );

    let lo = left.max_key - 40;
    AccessMethod::delete(&mut t, key, &rel).unwrap();
    assert!(!AccessMethod::probe(&t, key, &rel, &io).unwrap().found());
    assert_eq!(keys_in(&t, lo, key + 40), evens_but(lo, key + 40, key));

    // Delete the left leaf's last key too and rebuild: its filters lose
    // it, so a range from it skips the left leaf and reads the shared
    // page through the right one, which must drop it as well.
    let edge = lo + 40;
    AccessMethod::delete(&mut t, edge, &rel).unwrap();
    for idx in 0..t.leaf_pages() as u32 {
        t.rebuild_leaf(idx, rel.heap(), PK_OFFSET);
    }
    t.check_invariants();
    // Each rebuilt leaf counts its own live keys, not its sibling's on
    // the shared page.
    assert_eq!(t.n_keys(), 5_000 - 2);
    let live = |k: &u64| k.is_multiple_of(2) && *k != key && *k != edge;
    for lo in [lo, edge] {
        let want: Vec<u64> = (lo..=key + 40).filter(live).collect();
        assert_eq!(keys_in(&t, lo, key + 40), want, "from {lo}");
    }
}

#[test]
fn probing_range_scan_cuts_boundary_overhead() {
    let rel = pk_relation(50_000, 1);
    let io = IoContext::unmetered();
    let t = BfTree::builder().fpp(1e-8).build(&rel).unwrap();
    let (lo, hi) = (10_100u64, 10_300u64); // well inside one partition
    let plain = AccessMethod::range_scan(&t, lo, hi, &rel, &io).unwrap();
    let probed = t.scan_range_probing(lo, hi, &rel, &io).unwrap();
    assert_eq!(plain.matches, probed.matches);
    assert!(
        probed.pages_read <= plain.pages_read,
        "probing {} vs plain {}",
        probed.pages_read,
        plain.pages_read
    );
}

#[test]
fn probing_range_scan_drops_deleted_keys() {
    let rel = pk_relation(5_000, 1);
    let io = IoContext::unmetered();
    let mut t = BfTree::builder().fpp(1e-6).build(&rel).unwrap();
    AccessMethod::delete(&mut t, 2_000, &rel).unwrap();
    let keys = |matches: &[(u64, usize)]| -> Vec<u64> {
        matches
            .iter()
            .map(|&(pid, slot)| rel.heap().attr(pid, slot, PK_OFFSET))
            .collect()
    };
    let plain = AccessMethod::range_scan(&t, 1_995, 2_005, &rel, &io).unwrap();
    let probed = t.scan_range_probing(1_995, 2_005, &rel, &io).unwrap();
    assert!(!keys(&plain.matches).contains(&2_000));
    assert_eq!(keys(&probed.matches), keys(&plain.matches));
}

/// An `AllCoveringPages` tree's range scan probes its boundary leaves
/// (§7) instead of reading them whole: it reads the pages
/// `scan_range_probing` reads (68 and 103 pages before, when the
/// boundary partitions were read whole).
#[test]
fn all_covering_range_scan_reads_the_probed_candidate_pages() {
    let rel = pk_relation(200_000, 1);
    let io = IoContext::unmetered();
    let (lo, hi) = (10_100u64, 10_300u64);
    assert_eq!(exact_range_pages(rel.heap(), PK_OFFSET, lo, hi), 13);
    for (fpp, pages) in [(1e-6, 13), (1e-4, 14)] {
        let t = BfTree::builder()
            .fpp(fpp)
            .duplicates(bftree::DuplicateHandling::AllCoveringPages)
            .build(&rel)
            .unwrap();
        let plain = AccessMethod::range_scan(&t, lo, hi, &rel, &io).unwrap();
        let probed = t.scan_range_probing(lo, hi, &rel, &io).unwrap();
        assert_eq!(plain.pages_read, pages, "fpp {fpp}");
        assert_eq!(plain, probed, "fpp {fpp}");
    }
}

#[test]
fn probing_scan_rejects_inverted_ranges() {
    let rel = pk_relation(5_000, 1);
    let t = BfTree::builder().build(&rel).unwrap();
    let err = t
        .scan_range_probing(10, 5, &rel, &IoContext::unmetered())
        .unwrap_err();
    assert_eq!(err, bftree::ProbeError::InvertedRange { lo: 10, hi: 5 });
}

#[test]
fn range_scan_spanning_everything() {
    let rel = pk_relation(10_000, 11);
    let io = IoContext::unmetered();
    let t = BfTree::builder().build(&rel).unwrap();
    let r = AccessMethod::range_scan(&t, 0, u64::MAX, &rel, &io).unwrap();
    assert_eq!(r.matches.len() as u64, rel.heap().tuple_count());
    assert_eq!(r.pages_read, rel.heap().page_count());
    assert_eq!(r.overhead_pages, 0);
}

#[test]
fn granularity_knob_trades_filters_for_fetch_width() {
    let rel = pk_relation(100_000, 11);
    let io = IoContext::unmetered();
    let fine = BfTree::builder()
        .fpp(1e-4)
        .pages_per_bf(1)
        .build(&rel)
        .unwrap();
    let coarse = BfTree::builder()
        .fpp(1e-4)
        .pages_per_bf(8)
        .build(&rel)
        .unwrap();
    let mut fine_pages = 0u64;
    let mut coarse_pages = 0u64;
    for pk in (0..100_000u64).step_by(997) {
        fine_pages += AccessMethod::probe(&fine, pk, &rel, &io)
            .unwrap()
            .pages_read;
        coarse_pages += AccessMethod::probe(&coarse, pk, &rel, &io)
            .unwrap()
            .pages_read;
    }
    assert!(
        coarse_pages > fine_pages * 4,
        "coarse {coarse_pages} vs fine {fine_pages}"
    );
}

#[test]
fn fixed_k3_matches_paper_prototype_behaviour() {
    let rel = pk_relation(50_000, 11);
    let io = IoContext::unmetered();
    let t = BfTree::builder()
        .fpp(0.01)
        .k_strategy(KStrategy::Fixed(3))
        .build(&rel)
        .unwrap();
    for pk in (0..50_000u64).step_by(479) {
        assert!(AccessMethod::probe_first(&t, pk, &rel, &io)
            .unwrap()
            .found());
    }
}

#[test]
fn warm_index_cache_absorbs_internal_reads() {
    let rel = pk_relation(100_000, 11);
    let t = BfTree::builder().fpp(1e-4).build(&rel).unwrap();
    let io = IoContext::warm(bftree_storage::StorageConfig::SsdSsd, 1 << 20);
    io.prewarm_index(t.upper_page_ids());
    let r = AccessMethod::probe_first(&t, 55_555, &rel, &io).unwrap();
    assert!(r.found());
    // Only the BF-leaf itself misses the cache.
    assert_eq!(io.index.snapshot().random_reads, 1);
}

#[test]
fn empty_tree_probes_cleanly() {
    let heap = HeapFile::new(TupleLayout::new(256));
    let rel = Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap();
    let io = IoContext::unmetered();
    let t = BfTree::builder().empty(&rel).unwrap();
    let r = AccessMethod::probe(&t, 7, &rel, &io).unwrap();
    assert!(!r.found());
    assert_eq!(r.pages_read, 0);
}

/// Rebuilding via the trait replaces the tree's contents with the
/// relation's current state.
#[test]
fn trait_build_refreshes_after_appends() {
    let mut rel = pk_relation(1_000, 11);
    let io = IoContext::unmetered();
    let mut t = BfTree::builder().fpp(1e-4).build(&rel).unwrap();
    assert!(!AccessMethod::probe(&t, 1_500, &rel, &io).unwrap().found());
    for pk in 1_000..2_000u64 {
        rel.append_tuple(pk, pk / 11, &IoContext::unmetered());
    }
    AccessMethod::build(&mut t, &rel).unwrap();
    assert!(AccessMethod::probe(&t, 1_500, &rel, &io).unwrap().found());
}

/// xxh64 over every leaf of `tree`, in arena order: key and page
/// ranges, distinct-key count, sibling links, the filter group's image
/// and, when `deletes`, the delete count.
fn construction_hash(tree: &BfTree, deletes: bool) -> u64 {
    let link = |l: Option<u32>| l.map_or(u64::MAX, u64::from);
    let mut bytes = Vec::new();
    for l in tree.leaves() {
        let fields = [
            l.min_key,
            l.max_key,
            l.min_pid,
            l.max_pid,
            l.n_keys,
            link(l.prev),
            link(l.next),
        ];
        bytes.extend(fields.iter().flat_map(|v| v.to_le_bytes()));
        if deletes {
            bytes.extend(u64::from(l.deletes).to_le_bytes());
        }
        bytes.extend(l.group().to_bytes());
    }
    xxh64(&bytes, 0)
}

/// Bulk load, inserts through both split strategies (a batch at a
/// time, out of order, and one key at a time) and a delete-and-rebuild
/// build, byte for byte, the leaves recorded when a leaf's hash count
/// became capped at a full leaf's (`BfTreeConfig::full_leaf_k`). All 17
/// values moved then: every tree has a leaf below capacity — a bulk
/// load's last leaf, a split's two halves — whose filters had hashed
/// the `k` of its own occupancy. The rebuilt tree's deletes are left
/// out of its hash: a rebuild kept none when it was first recorded.
/// The deletes field was a length-prefixed list of keys until the leaf
/// kept only their count; the count is hashed as the list's length
/// was, so no tree hashed with it (none has a delete) moved. Re-record
/// the values only in a change that means to move construction.
#[test]
fn construction_is_byte_identical_to_the_recorded_parent() {
    let unique = pk_relation(20_000, 11);
    let contiguous = Relation::new(synthetic(20_000, 11), ATT1_OFFSET, Duplicates::Contiguous);
    // Forty values per 160-tuple partition, in no order within it.
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for pk in 0..20_000u64 {
        heap.append_record(pk, pk / 160 * 40 + pk * 7 % 40);
    }
    let scattered = Relation::new(heap, ATT1_OFFSET, Duplicates::Scattered);
    let rels = [
        ("unique", unique),
        ("contiguous", contiguous.unwrap()),
        ("scattered", scattered.unwrap()),
    ];

    let mut built: Vec<(String, BfTree, bool)> = Vec::new();
    for (name, rel) in &rels {
        for fpp in [1e-2, 1e-4] {
            for alloc in [BitAllocation::Uniform, BitAllocation::Proportional] {
                let tree = BfTree::builder()
                    .fpp(fpp)
                    .bit_allocation(alloc)
                    .build(rel)
                    .unwrap();
                built.push((format!("bulk {name} {fpp:e} {alloc:?}"), tree, true));
            }
        }
    }

    let rel = pk_relation(12_000, 11);
    let (heap, attr) = (rel.heap(), rel.attr());
    let entries: Vec<(u64, u64)> = heap.iter_attr(attr).map(|(pid, _, k)| (k, pid)).collect();
    for split in [SplitStrategy::RebuildFromData, SplitStrategy::ProbeDomain] {
        let config = BfTreeConfig {
            split,
            ..BfTreeConfig::ordered_default()
        };
        let mut batched = BfTree::new(config);
        for chunk in entries.chunks(1_000) {
            let backwards: Vec<_> = chunk.iter().rev().copied().collect();
            batched.insert_batch(&backwards, Some(heap), attr);
        }
        let mut single = BfTree::new(config);
        for &(key, pid) in &entries {
            single.insert(key, pid, Some(heap), attr);
        }
        assert!(single.leaf_pages() >= 4, "{split:?}: several splits");
        built.push((format!("batched {split:?}"), batched, true));
        built.push((format!("single {split:?}"), single, true));
    }

    let mut rebuilt = BfTree::builder().build(&rel).unwrap();
    for key in (500..12_000).step_by(997) {
        AccessMethod::delete(&mut rebuilt, key, &rel).unwrap();
    }
    for idx in 0..rebuilt.leaf_pages() as u32 {
        rebuilt.rebuild_leaf(idx, heap, attr);
    }
    built.push(("rebuilt".to_string(), rebuilt, false));

    let recorded: [u64; 17] = [
        0x23e0_7706_d914_6146,
        0x5990_3248_2d39_bd34,
        0x2216_30fe_239e_0a7b,
        0x74d4_29b3_8900_3480,
        0xfdf2_1686_1bc2_08ea,
        0x74ef_3e01_1931_dad7,
        0x34dc_7d86_3249_1748,
        0x8518_d9c5_e284_e1bb,
        0x932f_184c_5cc5_5de3,
        0x6555_c2e5_f969_57a1,
        0x4e96_63ad_0d7c_0e46,
        0x8208_1a41_e7ab_fdc9,
        0x8078_b321_71f6_119a,
        0x8078_b321_71f6_119a,
        0x13c9_1758_eaec_beef,
        0x13c9_1758_eaec_beef,
        0xa79e_d0ee_d4be_4262,
    ];
    assert_eq!(built.len(), recorded.len());
    for ((name, tree, deletes), want) in built.iter().zip(recorded) {
        tree.check_invariants();
        let got = construction_hash(tree, *deletes);
        assert_eq!(got, want, "{name}: {got:#018x}");
    }
}
