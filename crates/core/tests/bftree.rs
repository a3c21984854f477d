//! Behavioural tests of the BF-Tree against heap files, covering
//! Algorithms 1–3, range scans, deletes and the paper's size claims —
//! all through the unified `AccessMethod`/`Relation`/`IoContext`
//! surface.

use bftree::scan::exact_range_pages;
use bftree::{AccessMethod, BfTree, KStrategy, SplitStrategy};
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
        let loc = rel.heap_mut().append_record(pk, pk / 11);
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
        probing.insert(pk, pid, None, PK_OFFSET);
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
        let loc = rel.heap_mut().append_record(pk, pk);
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
}

#[test]
fn probing_range_scan_cuts_boundary_overhead() {
    let rel = pk_relation(50_000, 1);
    let io = IoContext::unmetered();
    let t = BfTree::builder().fpp(1e-8).build(&rel).unwrap();
    let (lo, hi) = (10_100u64, 10_300u64); // well inside one partition
    let plain = AccessMethod::range_scan(&t, lo, hi, &rel, &io).unwrap();
    let probed = t.scan_range_probing(lo, hi, &rel, &io, 1 << 16);
    assert_eq!(plain.matches, probed.matches);
    assert!(
        probed.pages_read <= plain.pages_read,
        "probing {} vs plain {}",
        probed.pages_read,
        plain.pages_read
    );
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
        rel.heap_mut().append_record(pk, pk / 11);
    }
    AccessMethod::build(&mut t, &rel).unwrap();
    assert!(AccessMethod::probe(&t, 1_500, &rel, &io).unwrap().found());
}
