//! Index builders plus the **one generic probe driver** every
//! experiment runs through.
//!
//! Where this module used to hand-roll a `build_*`/`run_*` pair per
//! competitor, the per-index probe logic now lives in each index's
//! [`AccessMethod`] implementation and the harness is a single loop
//! over `&dyn AccessMethod` — adding a backend to every figure means
//! implementing the trait, nothing here changes.

use bftree::BfTree;
use bftree_access::AccessMethod;
use bftree_btree::{relation_entries, BPlusTree, BTreeConfig, DuplicateMode};
use bftree_fdtree::FdTree;
use bftree_hashindex::HashIndex;
use bftree_storage::{IoContext, Relation};

/// Outcome of running a probe workload against one index.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Mean simulated response time per probe, microseconds.
    pub mean_us: f64,
    /// Index size in pages.
    pub index_pages: u64,
    /// Mean falsely-read data pages per probe (0 for exact indexes).
    pub false_reads: f64,
    /// Fraction of probes that found at least one tuple.
    pub hit_rate: f64,
}

/// The four competitors of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// The BF-Tree (the paper's contribution).
    BfTree,
    /// The B+-Tree baseline.
    BPlusTree,
    /// The in-memory hash-index baseline.
    Hash,
    /// The FD-Tree baseline.
    FdTree,
}

impl IndexKind {
    /// All competitors in the paper's presentation order.
    pub const ALL: [IndexKind; 4] = [
        IndexKind::BfTree,
        IndexKind::BPlusTree,
        IndexKind::Hash,
        IndexKind::FdTree,
    ];

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            IndexKind::BfTree => "BF-Tree",
            IndexKind::BPlusTree => "B+-Tree",
            IndexKind::Hash => "Hash (mem)",
            IndexKind::FdTree => "FD-Tree",
        }
    }
}

/// Build any competitor over `rel` as a trait object. `fpp` is the
/// BF-Tree's accuracy knob; exact indexes ignore it.
pub fn build_index(kind: IndexKind, rel: &Relation, fpp: f64) -> Box<dyn AccessMethod> {
    match kind {
        IndexKind::BfTree => Box::new(build_bftree(rel, fpp)),
        IndexKind::BPlusTree => Box::new(build_btree(rel)),
        IndexKind::Hash => Box::new(build_hashindex(rel)),
        IndexKind::FdTree => Box::new(build_fdtree(rel)),
    }
}

/// The generic probe driver: run every key in `probes` against
/// `index`, charging `io`, and report the paper's metrics (mean
/// simulated response time, false reads, index size, hit rate).
///
/// Unique relations get the paper's primary-key shortcut
/// ([`AccessMethod::probe_first`]: "as soon as the tuple is found the
/// search ends"); non-unique relations fetch every duplicate.
pub fn run_probes(
    index: &dyn AccessMethod,
    rel: &Relation,
    probes: &[u64],
    io: &IoContext,
) -> RunResult {
    io.reset();
    let mut hits = 0u64;
    let mut false_reads = 0u64;
    for &key in probes {
        let probe = if rel.is_unique() {
            index.probe_first(key, rel, io)
        } else {
            index.probe(key, rel, io)
        }
        .expect("relation validated at construction");
        hits += u64::from(probe.found());
        false_reads += probe.false_reads;
    }
    let n = probes.len().max(1) as f64;
    RunResult {
        mean_us: io.sim_us() / n,
        index_pages: index.stats().pages,
        false_reads: false_reads as f64 / n,
        hit_rate: hits as f64 / n,
    }
}

/// Build a BF-Tree over `rel` at the given fpp (bulk load, §4.2).
///
/// Duplicate handling derives from the relation (every harness dataset
/// is fully ordered on its indexed attribute, so first-page-only
/// filter loading applies and the realized fpp matches the target).
pub fn build_bftree(rel: &Relation, fpp: f64) -> BfTree {
    BfTree::builder()
        .fpp(fpp)
        // Proportional bit allocation keeps the realized fpp at the
        // target even when per-page key counts are skewed (TPCH and
        // SHD cardinalities); for uniform data it coincides with the
        // Property-1 even split.
        .bit_allocation(bftree::BitAllocation::Proportional)
        .build(rel)
        .expect("harness configuration is valid")
}

/// Build the B+-Tree baseline, bulk-loaded in key order.
///
/// Unique attributes get one `⟨key, (pid, slot)⟩` entry per tuple; for
/// non-unique attributes the ordered layout makes duplicates
/// contiguous, so the tree stores one entry per distinct key pointing
/// at its first tuple ([`DuplicateMode::FirstRef`]) — this is what
/// makes the paper's Table-2 ATT1 B+-Tree ~11× smaller than the PK
/// one. The mode derives from [`Relation::duplicates`].
pub fn build_btree(rel: &Relation) -> BPlusTree {
    let mut tree = BPlusTree::new(BTreeConfig::paper_default());
    AccessMethod::build(&mut tree, rel).expect("b+tree bulk build is total");
    tree
}

/// [`build_btree`] with an explicit duplicate-handling mode
/// (Table 2's ablations need both sizes over the same relation).
pub fn build_btree_with_mode(rel: &Relation, duplicates: DuplicateMode) -> BPlusTree {
    let config = BTreeConfig {
        page_size: rel.heap().page_size(),
        key_size: 8,
        ptr_size: 8,
        fill_factor: 1.0,
        duplicates,
    };
    BPlusTree::bulk_build(config, relation_entries(rel, duplicates, 0..=u64::MAX))
}

/// Build the in-memory hash index baseline.
pub fn build_hashindex(rel: &Relation) -> HashIndex {
    // The initial table only carries the seed; the trait build
    // replaces it with one sized from the entry stream.
    let mut idx = HashIndex::with_capacity(16, 0xCAB1E);
    AccessMethod::build(&mut idx, rel).expect("hash build is total");
    idx
}

/// Build the FD-Tree baseline.
pub fn build_fdtree(rel: &Relation) -> FdTree {
    let mut tree = FdTree::new();
    AccessMethod::build(&mut tree, rel).expect("fd-tree bulk build is total");
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use bftree_storage::tuple::PK_OFFSET;
    use bftree_storage::{Duplicates, HeapFile, StorageConfig, TupleLayout};

    fn relation() -> Relation {
        let mut h = HeapFile::new(TupleLayout::new(256));
        for pk in 0..5_000u64 {
            h.append_record(pk, pk / 11);
        }
        Relation::new(h, PK_OFFSET, Duplicates::Unique).unwrap()
    }

    #[test]
    fn all_indexes_agree_on_hits_through_one_driver() {
        let rel = relation();
        let probes: Vec<u64> = (0..100).map(|i| i * 37 % 5_000).collect();
        for kind in IndexKind::ALL {
            let index = build_index(kind, &rel, 1e-4);
            let io = IoContext::cold(StorageConfig::SsdSsd);
            let r = run_probes(index.as_ref(), &rel, &probes, &io);
            assert_eq!(r.hit_rate, 1.0, "{}", kind.label());
            assert!(
                r.mean_us > 0.0 || kind == IndexKind::Hash,
                "{}",
                kind.label()
            );
        }
    }

    #[test]
    fn bftree_is_smaller_than_btree() {
        let rel = relation();
        let bf = build_bftree(&rel, 1e-3);
        let bp = build_btree(&rel);
        assert!(bf.total_pages() * 2 < bp.total_pages());
    }

    #[test]
    fn misses_cost_no_data_io_for_exact_indexes() {
        let rel = relation();
        let probes = vec![1_000_000u64; 10]; // all miss
        let io = IoContext::cold(StorageConfig::MemHdd);
        let bp = build_btree(&rel);
        let r = run_probes(&bp, &rel, &probes, &io);
        assert_eq!(r.hit_rate, 0.0);
        assert_eq!(io.data.snapshot().device_reads(), 0);
    }
}
