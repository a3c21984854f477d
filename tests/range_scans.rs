//! Integration: range scans (§7, Figure 13) checked for completeness
//! against brute force, for both scan modes and both duplicate
//! handlings, and the range cursor's page count pinned per handling.

use bftree::scan::exact_range_pages;
use bftree::{AccessMethod, BfLeaf, BfTree, BfTreeConfig, DuplicateHandling, ProbeError};
use bftree_storage::tuple::{AttrOffset, ATT1_OFFSET, PK_OFFSET};
use bftree_storage::{Duplicates, HeapFile, IoContext, Relation, StorageConfig, TupleLayout};
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
            let mut got = tree.scan_range_probing(lo, hi, &rel, &io, 1 << 22).matches;
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
    let probing = tree.scan_range_probing(lo, hi, &rel, &io, 1 << 22);
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

/// The pages the whole-partition walk reads: every page of every leaf
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
/// its overlapping partitions whole.
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
                    DuplicateHandling::AllCoveringPages => assert_eq!(
                        r.pages_read,
                        whole_partition_pages(&tree, lo, hi),
                        "{label}"
                    ),
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
