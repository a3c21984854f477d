//! Section 7's index-free comparators (binary and interpolation
//! search over the ordered heap, the access methods `figures
//! sec7_access_methods` reports) against the BF-Tree: same answers,
//! more data pages.

use bftree::{AccessMethod, BfTree};
use bftree_storage::tuple::PK_OFFSET;
use bftree_storage::{
    binary_search, interpolation_search, Duplicates, HeapFile, IoContext, Relation,
};
use bftree_workloads::{build_relation_r, SyntheticConfig};

fn heap() -> HeapFile {
    build_relation_r(&SyntheticConfig {
        n_tuples: 30_000,
        ..SyntheticConfig::scaled_mb(8)
    })
}

fn pk_relation() -> Relation {
    Relation::new(heap(), PK_OFFSET, Duplicates::Unique).unwrap()
}

#[test]
fn index_free_comparators_agree_with_the_index() {
    let rel = pk_relation();
    let io = IoContext::unmetered();
    let tree = BfTree::builder().fpp(1e-4).build(&rel).unwrap();
    for key in (0..30_000u64).step_by(643) {
        let via_tree = AccessMethod::probe_first(&tree, key, &rel, &io).unwrap();
        let via_bin = binary_search(rel.heap(), PK_OFFSET, key, None);
        let via_interp = interpolation_search(rel.heap(), PK_OFFSET, key, None);
        assert_eq!(via_tree.matches, via_bin.matches, "key {key}");
        assert_eq!(via_bin.matches, via_interp.matches, "key {key}");
    }
}

#[test]
fn bftree_reads_fewer_pages_than_binary_search() {
    // §7: the index buys I/O. A tight BF-Tree probe reads ~1 data
    // page; binary search reads ~log2(pages).
    let rel = pk_relation();
    let io = IoContext::unmetered();
    let tree = BfTree::builder().fpp(1e-9).build(&rel).unwrap();
    let mut tree_pages = 0u64;
    let mut bin_pages = 0u64;
    for key in (0..30_000u64).step_by(359) {
        tree_pages += AccessMethod::probe_first(&tree, key, &rel, &io)
            .unwrap()
            .pages_read;
        bin_pages += binary_search(rel.heap(), PK_OFFSET, key, None).pages_read;
    }
    assert!(
        tree_pages * 3 < bin_pages,
        "BF-Tree {tree_pages} vs binary search {bin_pages} data pages"
    );
}
