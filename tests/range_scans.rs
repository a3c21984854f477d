//! Integration: range scans (§7, Figure 13) checked for completeness
//! against brute force, for both scan modes and both duplicate
//! handlings, and the range cursor's page count pinned per handling.

use bftree::scan::exact_range_pages;
use bftree::{AccessMethod, BfLeaf, BfTree, BfTreeConfig, DuplicateHandling, ProbeError};
use bftree_storage::tuple::{AttrOffset, ATT1_OFFSET, PK_OFFSET};
use bftree_storage::{
    Duplicates, HeapFile, IoContext, IoSnapshot, Relation, StorageConfig, TupleLayout,
};
use bftree_workloads::{build_relation_r, SyntheticConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn heap() -> HeapFile {
    build_relation_r(&SyntheticConfig {
        n_tuples: 25_000,
        ..SyntheticConfig::scaled_mb(8)
    })
}

fn pk_relation() -> Relation {
    Relation::new(heap(), PK_OFFSET, Duplicates::Unique).unwrap()
}

fn brute(heap: &HeapFile, attr: AttrOffset, lo: u64, hi: u64) -> Vec<(u64, usize)> {
    heap.iter_attr(attr)
        .filter(|&(_, _, v)| v >= lo && v <= hi)
        .map(|(pid, slot, _)| (pid, slot))
        .collect()
}

#[test]
fn plain_scan_is_complete() {
    let rel = pk_relation();
    let io = IoContext::unmetered();
    let tree = BfTree::builder().fpp(1e-4).build(&rel).unwrap();
    for (lo, hi) in [
        (0u64, 100u64),
        (5_000, 7_500),
        (24_900, 30_000),
        (12_345, 12_345),
    ] {
        let r = AccessMethod::range_scan(&tree, lo, hi, &rel, &io).unwrap();
        assert_eq!(
            r.matches,
            brute(rel.heap(), PK_OFFSET, lo, hi),
            "range [{lo}, {hi}]"
        );
    }
}

#[test]
fn probing_scan_is_complete_for_both_duplicate_modes() {
    let rel = Relation::new(heap(), ATT1_OFFSET, Duplicates::Contiguous).unwrap();
    let io = IoContext::unmetered();
    for duplicates in [
        DuplicateHandling::AllCoveringPages,
        DuplicateHandling::FirstPageOnly,
    ] {
        let tree = BfTree::builder()
            .fpp(1e-6)
            .duplicates(duplicates)
            .build(&rel)
            .unwrap();
        for (lo, hi) in [(10u64, 300u64), (5_000, 5_800), (0, 50)] {
            let mut got = tree.scan_range_probing(lo, hi, &rel, &io).unwrap().matches;
            got.sort_unstable();
            assert_eq!(
                got,
                brute(rel.heap(), ATT1_OFFSET, lo, hi),
                "range [{lo}, {hi}] under {duplicates:?}"
            );
        }
    }
}

#[test]
fn probing_scan_reads_fewer_boundary_pages_at_tight_fpp() {
    let rel = pk_relation();
    let io = IoContext::unmetered();
    let tree = BfTree::builder().fpp(1e-9).build(&rel).unwrap();
    // A 1% range: boundary overhead dominates the plain scan.
    let (lo, hi) = (10_000u64, 10_250u64);
    let plain = AccessMethod::range_scan(&tree, lo, hi, &rel, &io).unwrap();
    let probing = tree.scan_range_probing(lo, hi, &rel, &io).unwrap();
    assert_eq!(plain.matches, probing.matches);
    assert!(
        probing.pages_read <= plain.pages_read,
        "probing {} vs plain {}",
        probing.pages_read,
        plain.pages_read
    );
    // Figure 13's tight-fpp claim: overhead within 20% of the exact
    // B+-Tree page count.
    let exact = exact_range_pages(rel.heap(), PK_OFFSET, lo, hi);
    assert!(
        (probing.pages_read as f64) <= exact as f64 * 1.2,
        "probing {} vs exact {}",
        probing.pages_read,
        exact
    );
}

/// A seeded relation ordered on its key: keys start at 100 and step by
/// 1 or 2 (so some values in the domain are absent); each key appears
/// once (`Unique`, indexed on PK) or in a run of 1–24 tuples
/// (`Contiguous`, indexed on ATT1), so runs cross page and leaf
/// boundaries.
fn ordered_relation(duplicates: Duplicates, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let unique = duplicates == Duplicates::Unique;
    let mut heap = HeapFile::new(TupleLayout::new(256));
    let mut key = 100u64;
    while heap.tuple_count() < 12_000 {
        let run = if unique {
            1
        } else {
            rng.random_range(1..=24u64)
        };
        for _ in 0..run {
            let pk = if unique { key } else { heap.tuple_count() };
            heap.append_record(pk, key);
        }
        key += rng.random_range(1..=2u64);
    }
    let attr = if unique { PK_OFFSET } else { ATT1_OFFSET };
    Relation::new(heap, attr, duplicates).unwrap()
}

/// The pages a whole-partition walk reads: every page of every leaf
/// from the first overlapping one (the floor leaf of `lo`, or a left
/// sibling still holding `lo`) through the last leaf starting at or
/// below `hi`. Bulk-built leaves are disjoint and in arena order.
fn whole_partition_pages(tree: &BfTree, lo: u64, hi: u64) -> u64 {
    let leaves = tree.leaves();
    let mut first = leaves.iter().rposition(|l| l.min_key <= lo).unwrap_or(0);
    while first > 0 && leaves[first - 1].max_key >= lo {
        first -= 1;
    }
    leaves[first..]
        .iter()
        .take_while(|l| l.min_key <= hi)
        .map(BfLeaf::n_pages)
        .sum()
}

/// 1 when the ordered walk must read one page past the range to see it
/// end: the last page holding a match ends at a key `<= hi`, and its
/// successor lies in the same leaf.
fn end_proof_pages(tree: &BfTree, rel: &Relation, matches: &[(u64, usize)], hi: u64) -> u64 {
    let Some(&(page, _)) = matches.last() else {
        return 0;
    };
    let heap = rel.heap();
    let last_key = heap.attr(page, heap.tuples_in_page(page) - 1, rel.attr());
    let leaf = tree.leaves().iter().find(|l| l.covers_pid(page)).unwrap();
    u64::from(last_key <= hi && page < leaf.max_pid)
}

/// The cursor battery: `Unique` and `Contiguous` relations × both
/// duplicate handlings, over ranges that start mid-leaf, in a gap or
/// before the first key, end past the last key, hold one key, cross
/// leaves, or sit on a duplicate run crossing a leaf boundary, plus
/// seeded random ones. Every scan equals brute force. A
/// `FirstPageOnly` tree reads the exact pages plus its seek's false
/// positives (charged as the only random reads) and at most the one
/// page that proves the range ended; an `AllCoveringPages` tree reads
/// §7's candidate pages: the exact pages plus its overhead, the pages
/// `scan_range_probing` reads, and never more than its overlapping
/// partitions whole.
#[test]
fn range_cursor_reads_only_pages_that_can_hold_the_range() {
    for (duplicates, seed) in [
        (Duplicates::Unique, 0xBF31_0001),
        (Duplicates::Contiguous, 0xBF31_0002),
    ] {
        let rel = ordered_relation(duplicates, seed);
        let attr = rel.attr();
        let mut keys: Vec<u64> = rel.heap().iter_attr(attr).map(|(_, _, v)| v).collect();
        keys.dedup();
        let (first, last) = (keys[0], keys[keys.len() - 1]);
        let gap = keys.windows(2).find(|w| w[1] > w[0] + 1).unwrap()[0] + 1;
        for handling in [
            DuplicateHandling::FirstPageOnly,
            DuplicateHandling::AllCoveringPages,
        ] {
            // Small nodes: dozens of leaves on 750 heap pages.
            let config = BfTreeConfig {
                page_size: 512,
                fpp: 1e-4,
                ..BfTreeConfig::paper_default()
            };
            let tree = BfTree::builder()
                .config(config)
                .duplicates(handling)
                .build(&rel)
                .unwrap();
            let leaves = tree.leaves();
            assert!(leaves.len() >= 3, "{duplicates:?}: too few leaves");
            let mid = |l: &BfLeaf| l.min_key + (l.max_key - l.min_key) / 2;
            let mut cases = vec![
                (mid(&leaves[1]), mid(&leaves[1]) + 40),
                (gap, gap + 30),
                (gap, gap),
                (0, first + 20),
                (0, first - 1),
                (mid(&leaves[leaves.len() - 1]), last + 1_000),
                (keys[keys.len() / 2], keys[keys.len() / 2]),
                (mid(&leaves[0]), mid(&leaves[2])),
            ];
            let spanning = leaves
                .windows(2)
                .find(|w| w[0].max_key == w[1].min_key)
                .map(|w| w[0].max_key);
            if duplicates == Duplicates::Contiguous {
                let k = spanning.expect("a duplicate run crosses a leaf boundary");
                cases.extend([(k, k), (k - 3, k + 3)]);
            }
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC0);
            for _ in 0..16 {
                let lo = rng.random_range(first - 10..=last);
                cases.push((lo, lo + rng.random_range(0..600u64)));
            }

            for (lo, hi) in cases {
                let label = format!("{duplicates:?} / {handling:?}, range [{lo}, {hi}]");
                let io = IoContext::cold(StorageConfig::SsdHdd);
                let r = AccessMethod::range_scan(&tree, lo, hi, &rel, &io).unwrap();
                assert_eq!(r.matches, brute(rel.heap(), attr, lo, hi), "{label}");
                match handling {
                    DuplicateHandling::FirstPageOnly => {
                        let exact = exact_range_pages(rel.heap(), attr, lo, hi);
                        let seek_false_positives = io.data.snapshot().random_reads;
                        assert_eq!(r.pages_read, exact + r.overhead_pages, "{label}");
                        assert_eq!(
                            r.overhead_pages,
                            seek_false_positives + end_proof_pages(&tree, &rel, &r.matches, hi),
                            "{label}"
                        );
                    }
                    DuplicateHandling::AllCoveringPages => {
                        let probing = tree.scan_range_probing(lo, hi, &rel, &io).unwrap();
                        let exact = exact_range_pages(rel.heap(), attr, lo, hi);
                        assert_eq!(r.pages_read, probing.pages_read, "{label}");
                        assert_eq!(r.pages_read, exact + r.overhead_pages, "{label}");
                        assert!(
                            r.pages_read <= whole_partition_pages(&tree, lo, hi),
                            "{label}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn empty_and_inverted_ranges() {
    let rel = pk_relation();
    let io = IoContext::unmetered();
    let tree = BfTree::builder().build(&rel).unwrap();
    // A range entirely past the data: no matches, bounded I/O.
    let r = AccessMethod::range_scan(&tree, 1 << 40, (1 << 40) + 10, &rel, &io).unwrap();
    assert!(r.matches.is_empty());
}

#[test]
fn inverted_range_is_a_typed_error() {
    let rel = pk_relation();
    let io = IoContext::unmetered();
    let tree = BfTree::builder().build(&rel).unwrap();
    let err = AccessMethod::range_scan(&tree, 10, 5, &rel, &io).unwrap_err();
    assert_eq!(err, ProbeError::InvertedRange { lo: 10, hi: 5 });
}

/// A key inserted below the tree's largest key lands on the heap's last
/// page, out of heap order: page 40 reads `[1280, 1282, 1284, 1286, 7,
/// 2000]`. A walk that trusts heap order took that page whole for a
/// range holding its two end keys, and missed the key wherever the
/// page lies past the range's own pages. The tree remembers the
/// insert and scans with §7's probed plan, filtering every tuple.
#[test]
fn a_key_inserted_out_of_heap_order_is_scanned_where_it_lies() {
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for k in 0..644u64 {
        heap.append_record(2 * k, 2 * k);
    }
    let mut rel = Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap();
    let io = IoContext::unmetered();
    let mut tree = BfTree::builder().build(&rel).unwrap();
    for key in [7, 2000] {
        let loc = rel.append_tuple(key, key, &io);
        AccessMethod::insert(&mut tree, key, loc, &rel).unwrap();
    }
    let page_40: Vec<u64> = rel.heap().page_attrs(40, PK_OFFSET).collect();
    assert_eq!(page_40, [1280, 1282, 1284, 1286, 7, 2000]);
    assert_eq!(tree.probe(7, &rel, &io).unwrap().matches, [(40, 4)]);
    for (lo, hi) in [(1200, 3000), (0, 10), (6, 8), (7, 7), (0, 3000), (1, 1286)] {
        let got = AccessMethod::range_scan(&tree, lo, hi, &rel, &io).unwrap();
        let mut matches = got.matches;
        matches.sort_unstable();
        assert_eq!(
            matches,
            brute(rel.heap(), PK_OFFSET, lo, hi),
            "[{lo}, {hi}]"
        );
    }
}

/// Out-of-order inserts and deletes across many small leaves, both
/// duplicate handlings: every range scan equals brute force over the
/// live keys, and so does every
/// eighth one drained a page at a time through continuation tokens.
#[test]
fn ranges_after_out_of_order_inserts_equal_brute_force() {
    let mut rng = StdRng::seed_from_u64(0xBF44);
    for handling in [
        DuplicateHandling::FirstPageOnly,
        DuplicateHandling::AllCoveringPages,
    ] {
        let mut rel = ordered_relation(Duplicates::Unique, 0xBF44_0001);
        let io = IoContext::unmetered();
        let config = BfTreeConfig {
            page_size: 512,
            fpp: 1e-4,
            ..BfTreeConfig::paper_default()
        };
        let mut tree = BfTree::builder()
            .config(config)
            .duplicates(handling)
            .build(&rel)
            .unwrap();
        assert!(tree.leaves().len() >= 3);
        let keys: Vec<u64> = rel.heap().iter_attr(PK_OFFSET).map(|(_, _, v)| v).collect();
        let (first, last) = (keys[0], keys[keys.len() - 1]);
        // Absent keys from the domain's gaps, appended in random order,
        // then one past the end.
        let mut absent: Vec<u64> = keys
            .windows(2)
            .filter(|w| w[1] > w[0] + 1)
            .map(|w| w[0] + 1)
            .collect();
        for i in (1..absent.len()).rev() {
            absent.swap(i, rng.random_range(0..=i));
        }
        absent.truncate(40);
        absent.push(last + 5);
        for &key in &absent {
            let loc = rel.append_tuple(key, key, &io);
            AccessMethod::insert(&mut tree, key, loc, &rel).unwrap();
        }
        // Tombstones on both kinds of key.
        let deleted: Vec<u64> = absent
            .iter()
            .step_by(8)
            .chain(keys.iter().step_by(997))
            .copied()
            .collect();
        for &key in &deleted {
            AccessMethod::delete(&mut tree, key, &rel).unwrap();
        }
        let mut cases: Vec<(u64, u64)> = absent.iter().map(|&k| (k, k)).collect();
        for _ in 0..64 {
            let lo = rng.random_range(first - 10..=last);
            cases.push((lo, lo + rng.random_range(0..3_000u64)));
        }
        cases.push((0, u64::MAX));
        for (case, (lo, hi)) in cases.into_iter().enumerate() {
            let label = format!("{handling:?}, range [{lo}, {hi}]");
            let mut want = brute(rel.heap(), PK_OFFSET, lo, hi);
            want.retain(|&(pid, slot)| !deleted.contains(&rel.heap().attr(pid, slot, PK_OFFSET)));
            let mut got = AccessMethod::range_scan(&tree, lo, hi, &rel, &io)
                .unwrap()
                .matches;
            got.sort_unstable();
            assert_eq!(got, want, "{label}");
            if case % 8 != 0 {
                continue;
            }
            let mut drained = drain_paginated(&tree, lo, hi, &rel, &io);
            drained.sort_unstable();
            assert_eq!(drained, want, "{label}, resumed");
        }
    }
}

/// `[lo, hi]` drained a page at a time, resuming from a continuation
/// token after every page.
fn drain_paginated(
    tree: &BfTree,
    lo: u64,
    hi: u64,
    rel: &Relation,
    io: &IoContext,
) -> Vec<(u64, usize)> {
    let mut drained = Vec::new();
    let mut cursor = AccessMethod::range_cursor(tree, lo, hi, rel, io).unwrap();
    while let Some(page) = cursor.next_page_matches() {
        drained.extend_from_slice(page);
        cursor.advance();
        let Some(token) = cursor.continuation() else {
            break;
        };
        cursor = AccessMethod::resume_range_cursor(tree, &token, rel, io).unwrap();
    }
    drained
}

/// A tuple appended behind larger keys and never indexed (what a
/// shard's neighbours and a `DurableIndex`'s buffer leave in a base
/// tree's heap) is never delivered outside `[lo, hi]`: not by a page
/// taken whole, under either duplicate handling, by a full drain, the
/// probed scan or a paginated drain. Every delivered tuple is live and
/// in range, and every indexed live tuple in range is delivered.
#[test]
fn an_unindexed_append_never_leaks_into_a_range() {
    let io = IoContext::unmetered();
    for handling in [
        DuplicateHandling::FirstPageOnly,
        DuplicateHandling::AllCoveringPages,
    ] {
        let heap = HeapFile::new(TupleLayout::new(256));
        let mut rel = Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap();
        for pk in 0..5_000u64 {
            rel.append_tuple(pk, pk / 11, &io);
        }
        let mut tree = BfTree::builder()
            .fpp(1e-4)
            .duplicates(handling)
            .build(&rel)
            .unwrap();
        let indexed = rel.heap().tuple_count();
        rel.append_tuple(3, 0, &io);
        for key in [7, 4_500] {
            AccessMethod::delete(&mut tree, key, &rel).unwrap();
        }
        let heap = rel.heap();
        let per = heap.tuples_per_page() as u64;
        for (lo, hi) in [(4_990, 6_000), (0, 10), (0, 5_000), (2, 4), (4_000, 4_999)] {
            let mut want = brute(heap, PK_OFFSET, lo, hi);
            want.retain(|&(pid, slot)| pid * per + (slot as u64) < indexed);
            want.retain(|&(pid, slot)| heap.is_live(pid, slot));
            let drains = [
                (
                    "range_scan",
                    AccessMethod::range_scan(&tree, lo, hi, &rel, &io)
                        .unwrap()
                        .matches,
                ),
                (
                    "probing",
                    tree.scan_range_probing(lo, hi, &rel, &io).unwrap().matches,
                ),
                ("paginated", drain_paginated(&tree, lo, hi, &rel, &io)),
            ];
            for (how, got) in drains {
                let label = format!("{handling:?}, {how} [{lo}, {hi}]");
                for &(pid, slot) in &got {
                    let key = heap.attr(pid, slot, PK_OFFSET);
                    assert!((lo..=hi).contains(&key), "{label}: key {key} delivered");
                    assert!(heap.is_live(pid, slot), "{label}: dead key {key} delivered");
                }
                for loc in &want {
                    assert!(got.contains(loc), "{label}: {loc:?} missing");
                }
            }
        }
    }
}

/// Two keys appended and inserted at the heap's tail, the second behind
/// the first, leave every range that does not reach the tail page
/// exactly as it was: the same matches and the same index and data
/// charges, drained whole or a page at a time. Ranges that reach it
/// equal brute force.
#[test]
fn an_out_of_order_tail_insert_leaves_other_ranges_unchanged() {
    let mut rng = StdRng::seed_from_u64(0xBF48);
    for handling in [
        DuplicateHandling::FirstPageOnly,
        DuplicateHandling::AllCoveringPages,
    ] {
        // Cut so that the tail leaf has room: a split would move the
        // charges of the ranges near it for a reason other than order.
        let full = ordered_relation(Duplicates::Unique, 0xBF48_0001);
        let cut = full.heap().truncated(full.heap().tuple_count() - 40);
        let mut rel = Relation::new(cut, PK_OFFSET, Duplicates::Unique).unwrap();
        let config = BfTreeConfig {
            page_size: 512,
            fpp: 1e-4,
            ..BfTreeConfig::paper_default()
        };
        let mut tree = BfTree::builder()
            .config(config)
            .duplicates(handling)
            .build(&rel)
            .unwrap();
        let leaves = tree.leaves().len();
        assert!(leaves >= 3);
        let heap = rel.heap();
        let last_page = heap.page_count() - 1;
        let first = heap.attr(0, 0, PK_OFFSET);
        // Below every key of the tail page.
        let below_tail = heap.attr(last_page, 0, PK_OFFSET) - 1;
        let mut ranges: Vec<(u64, u64)> = (0..48)
            .map(|_| {
                let lo = rng.random_range(first - 10..below_tail);
                (lo, below_tail.min(lo + rng.random_range(0..1_500u64)))
            })
            .collect();
        ranges.push((0, below_tail));
        type Run = (Vec<(u64, usize)>, IoSnapshot, IoSnapshot);
        let measure = |tree: &BfTree, rel: &Relation| -> Vec<(Run, Run)> {
            let run = |drain: &dyn Fn(&IoContext) -> Vec<(u64, usize)>| -> Run {
                let io = IoContext::cold(StorageConfig::SsdSsd);
                let got = drain(&io);
                (got, io.index.snapshot(), io.data.snapshot())
            };
            ranges
                .iter()
                .map(|&(lo, hi)| {
                    let whole = run(&|io| {
                        AccessMethod::range_scan(tree, lo, hi, rel, io)
                            .unwrap()
                            .matches
                    });
                    let paged = run(&|io| drain_paginated(tree, lo, hi, rel, io));
                    (whole, paged)
                })
                .collect()
        };
        let before = measure(&tree, &rel);
        let tail = heap.attr(last_page, heap.tuples_in_page(last_page) - 1, PK_OFFSET);
        let io = IoContext::unmetered();
        for key in [tail + 10, tail + 5] {
            let loc = rel.append_tuple(key, key, &io);
            AccessMethod::insert(&mut tree, key, loc, &rel).unwrap();
        }
        assert_eq!(tree.leaves().len(), leaves, "the tail leaf had room");
        let after = measure(&tree, &rel);
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            let label = format!("{handling:?}, range {:?}", ranges[i]);
            for ((got_b, index_b, data_b), (got_a, index_a, data_a)) in [(&b.0, &a.0), (&b.1, &a.1)]
            {
                assert_eq!(got_b, got_a, "{label}: matches");
                assert_eq!(index_b, index_a, "{label}: index charges");
                assert_eq!(data_b, data_a, "{label}: data charges");
            }
        }
        let tail_pages = rel.heap().page_count() - last_page;
        for (lo, hi) in [(below_tail, tail + 10), (tail + 5, tail + 5), (0, u64::MAX)] {
            let label = format!("{handling:?}, {tail_pages} tail pages, [{lo}, {hi}]");
            let want = brute(rel.heap(), PK_OFFSET, lo, hi);
            let mut got = AccessMethod::range_scan(&tree, lo, hi, &rel, &io)
                .unwrap()
                .matches;
            got.sort_unstable();
            assert_eq!(got, want, "{label}");
            let mut drained = drain_paginated(&tree, lo, hi, &rel, &io);
            drained.sort_unstable();
            assert_eq!(drained, want, "{label}, resumed");
        }
    }
}
