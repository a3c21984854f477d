//! Cold-storage scenario (paper §1.1): immutable, time-ordered data
//! parked on cheap flash, where index *capacity* is the scarce
//! resource. Shows the capacity/performance trade-off end to end:
//! pick a capacity budget, find the tightest fpp that fits, watch what
//! trickling in extra inserts does to accuracy (Equation 14) and what
//! expiring the oldest tuples leaves behind (§7's deletes) — plus the
//! leaf-rebuild remedy for both.
//!
//! ```text
//! cargo run --release --example cold_storage
//! ```

use bftree::{AccessMethod, BfTree};
use bftree_model::fpp_after_inserts;
use bftree_storage::tuple::PK_OFFSET;
use bftree_storage::{Duplicates, HeapFile, IoContext, Relation, StorageConfig, TupleLayout};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An immutable archive file: 100k tuples, ordered by creation time.
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for pk in 0..100_000u64 {
        heap.append_record(pk, pk);
    }
    let mut relation = Relation::new(heap, PK_OFFSET, Duplicates::Unique)?;
    println!(
        "archive: {} pages ({} MB)\n",
        relation.heap().page_count(),
        relation.heap().byte_size() >> 20
    );

    // The capacity sweep: what does each accuracy level cost?
    println!(
        "{:>8}  {:>11}  {:>13}  {:>14}",
        "fpp", "index pages", "% of data", "us/probe (SSD)"
    );
    let mut chosen: Option<(f64, BfTree)> = None;
    // Spend <=1% of data size on the index.
    let budget_pages = relation.heap().page_count() / 100;
    for fpp in [0.2, 1e-2, 1e-4, 1e-8, 1e-12] {
        let tree = BfTree::builder().fpp(fpp).build(&relation)?;
        let io = IoContext::cold(StorageConfig::SsdSsd);
        for key in (0..100_000u64).step_by(257) {
            let _ = AccessMethod::probe_first(&tree, key, &relation, &io)?;
        }
        let n = (100_000u64).div_ceil(257);
        let us = io.sim_us() / n as f64;
        println!(
            "{fpp:>8.0e}  {:>11}  {:>12.2}%  {us:>14.1}",
            tree.total_pages(),
            100.0 * tree.total_pages() as f64 / relation.heap().page_count() as f64
        );
        if tree.total_pages() <= budget_pages && chosen.is_none() {
            chosen = Some((fpp, tree));
        }
    }
    let (fpp, mut tree) = chosen.expect("some fpp fits the budget");
    println!(
        "\nbudget {} pages (1% of data) -> tightest fitting fpp = {fpp:.0e} ({} pages)\n",
        budget_pages,
        tree.total_pages()
    );

    // The archive later receives a trickle of late arrivals (5%).
    let n0 = relation.heap().tuple_count();
    let extra = n0 / 20;
    for pk in n0..n0 + extra {
        let loc = relation.append_tuple(pk, pk, &IoContext::unmetered());
        AccessMethod::insert(&mut tree, pk, loc, &relation)?;
    }
    tree.check_invariants();
    println!(
        "after {extra} late inserts (5%): Equation 14 predicts fpp {:.2e} (target was {fpp:.0e})",
        fpp_after_inserts(fpp, 0.05)
    );

    // Retention expires the oldest 1% (§7's deletes). A delete marks
    // the tuple dead in the heap, which every probe and scan skips; the
    // filters cannot forget the key, so its page stays a candidate (a
    // false read) and the leaf counts the delete.
    let expired = n0 / 100;
    for pk in 0..expired {
        AccessMethod::delete(&mut tree, pk, &relation)?;
    }
    let io = IoContext::unmetered();
    let counted =
        |tree: &BfTree| -> u64 { tree.leaves().iter().map(|l| u64::from(l.deletes)).sum() };
    let r = AccessMethod::probe_first(&tree, expired / 2, &relation, &io)?;
    assert!(
        !r.found() && r.false_reads > 0,
        "an expired tuple's page is a false read"
    );
    println!(
        "expired the oldest {expired} tuples: the leaves count {} deletes",
        counted(&tree)
    );

    // Remedy: rebuild the affected leaves from the live data (cheap,
    // §4.2 / §7 — the small index size "enables fast rebuilds if
    // needed"): the filters take the late arrivals and drop the
    // expired keys, and the delete counts restart.
    for idx in 0..tree.leaf_pages() as u32 {
        tree.rebuild_leaf(idx, relation.heap(), PK_OFFSET);
    }
    tree.check_heap_invariants(&relation);
    let r = AccessMethod::probe_first(&tree, n0 + extra / 2, &relation, &io)?;
    assert!(r.found(), "late arrival must be indexed after rebuild");
    assert_eq!(counted(&tree), 0);
    let r = AccessMethod::probe_first(&tree, expired / 2, &relation, &io)?;
    assert!(!r.found(), "an expired tuple stays deleted");
    println!(
        "rebuilt {} leaves; late arrivals probe correctly, expired keys miss, \
         no deletes left to count",
        tree.leaf_pages()
    );
    Ok(())
}
