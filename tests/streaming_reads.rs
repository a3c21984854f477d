//! Streaming-read properties (the PR-5 API): seeded batteries
//! asserting that `limit(k)` cursors read a bounded prefix of the
//! range's pages and that `Continuation` resumption yields exactly
//! the undelivered remainder — with no data-page re-read on the
//! BF-Tree when the cut lands on a page boundary.

use bftree::BfTree;
use bftree_access::{AccessMethod, Continuation, RangeCursor, RangeCursorExt};
use bftree_btree::{BPlusTree, BTreeConfig};
use bftree_fdtree::FdTree;
use bftree_hashindex::HashIndex;
use bftree_storage::tuple::{ATT1_OFFSET, PK_OFFSET};
use bftree_storage::{Duplicates, HeapFile, IoContext, Relation, StorageConfig, TupleLayout};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const N: u64 = 20_000;
const CARD: u64 = 7;

fn relation(duplicates: Duplicates) -> Relation {
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for pk in 0..N {
        heap.append_record(pk, pk / CARD);
    }
    let attr = if duplicates == Duplicates::Unique {
        PK_OFFSET
    } else {
        ATT1_OFFSET
    };
    Relation::new(heap, attr, duplicates).expect("conventional layout")
}

fn all_indexes(rel: &Relation) -> Vec<Box<dyn AccessMethod>> {
    let mut indexes: Vec<Box<dyn AccessMethod>> = vec![
        Box::new(BfTree::builder().fpp(1e-4).empty(rel).expect("valid")),
        Box::new(BPlusTree::new(BTreeConfig::paper_default())),
        Box::new(HashIndex::with_capacity(16, 0xC0FFEE)),
        Box::new(FdTree::new()),
    ];
    for index in &mut indexes {
        index.build(rel).unwrap();
    }
    indexes
}

/// Drain a cursor fully; returns the matches.
fn drain(cursor: &mut dyn RangeCursor) -> Vec<(u64, usize)> {
    let mut out = Vec::new();
    while let Some(page) = cursor.next_page_matches() {
        out.extend_from_slice(page);
        cursor.advance();
    }
    out
}

/// Drain a `limit(k)` cursor; returns `(delivered, token, data pages)`.
fn drain_limited(
    index: &dyn AccessMethod,
    lo: u64,
    hi: u64,
    k: u64,
    rel: &Relation,
    io: &IoContext,
) -> (Vec<(u64, usize)>, Option<Continuation>, u64) {
    let mut cursor = index.range_cursor(lo, hi, rel, io).unwrap().limit(k);
    let head = drain(&mut cursor);
    (head, cursor.continuation(), cursor.io().pages_read)
}

/// Seeded battery: for every index, every limit, every random range —
/// the limited cursor reads **no more** data pages than the full scan
/// (strictly fewer whenever the result meaningfully exceeds the
/// limit), and prefix + resume reproduces the full scan match for
/// match.
#[test]
fn limited_cursors_read_a_bounded_prefix_and_resume_exactly() {
    for duplicates in [Duplicates::Unique, Duplicates::Contiguous] {
        let rel = relation(duplicates);
        let domain = if duplicates == Duplicates::Unique {
            N
        } else {
            N / CARD
        };
        let indexes = all_indexes(&rel);
        let mut rng = StdRng::seed_from_u64(0xBF05_0001);
        for case in 0..6 {
            let lo = rng.random_range(0..domain);
            let hi = (lo + 32 + rng.random_range(0..domain / 4)).min(domain + 10);
            for index in &indexes {
                let name = index.name();
                let io_full = IoContext::cold(StorageConfig::SsdHdd);
                let full = index.range_scan(lo, hi, &rel, &io_full).unwrap();
                let full_data_reads = io_full.data.snapshot().device_reads();
                assert_eq!(full.pages_read, full_data_reads, "{name}: accounting");

                for k in [1u64, 10, 100, 1000] {
                    let io = IoContext::cold(StorageConfig::SsdHdd);
                    let (head, token, pages) = drain_limited(index.as_ref(), lo, hi, k, &rel, &io);
                    assert_eq!(
                        head.len() as u64,
                        k.min(full.matches.len() as u64),
                        "{name}: case {case} limit {k} delivered count"
                    );
                    assert_eq!(
                        head.as_slice(),
                        &full.matches[..head.len()],
                        "{name}: case {case} limit {k} delivers the scan's prefix"
                    );
                    assert!(
                        pages <= full.pages_read,
                        "{name}: limit({k}) read {pages} pages vs full {}",
                        full.pages_read
                    );
                    assert_eq!(
                        pages,
                        io.data.snapshot().device_reads(),
                        "{name}: cursor accounting matches the device"
                    );
                    // The paper's pay-for-what-you-read claim: a small
                    // limit over a many-page result stops strictly
                    // early.
                    if full.matches.len() as u64 > 4 * k && full.pages_read > pages + 4 {
                        assert!(
                            pages < full.pages_read,
                            "{name}: case {case} limit {k} should terminate early"
                        );
                    }

                    // Resume: exactly the remainder, nothing twice.
                    match token {
                        None => assert_eq!(
                            head.len(),
                            full.matches.len(),
                            "{name}: no token only when drained"
                        ),
                        Some(token) => {
                            let round_trip =
                                Continuation::decode(&token.encode()).expect("valid token");
                            let io2 = IoContext::cold(StorageConfig::SsdHdd);
                            let mut rest_cursor =
                                index.resume_range_cursor(&round_trip, &rel, &io2).unwrap();
                            let rest = drain(&mut rest_cursor);
                            let mut whole = head.clone();
                            whole.extend(rest);
                            assert_eq!(
                                whole, full.matches,
                                "{name}: case {case} limit {k} prefix + resume == full"
                            );
                            // The consumed prefix is never rescanned:
                            // at most the one boundary page is touched
                            // twice.
                            let resume_pages = rest_cursor.io().pages_read;
                            assert!(
                                pages + resume_pages <= full.pages_read + 1,
                                "{name}: case {case} limit {k}: {pages} + {resume_pages} \
                                 resume pages vs {} full",
                                full.pages_read
                            );
                        }
                    }
                }
            }
        }
    }
}

/// BF-Tree page-boundary resumption: when the limit lands exactly on
/// a page boundary (derived from a page-by-page dry run), the resumed
/// cursor re-reads **no data page at all** — prefix pages + resume
/// pages equal the full scan's page count exactly, in the same
/// sequential-read cost model.
#[test]
fn bftree_boundary_aligned_resume_rereads_no_page() {
    let rel = relation(Duplicates::Unique);
    let tree = BfTree::builder().fpp(1e-4).build(&rel).unwrap();
    let index: &dyn AccessMethod = &tree;
    let mut rng = StdRng::seed_from_u64(0xBF05_0002);
    for case in 0..8 {
        let lo = rng.random_range(0..N - 600);
        let hi = lo + 200 + rng.random_range(0u64..400);
        let io_full = IoContext::cold(StorageConfig::SsdHdd);
        let full = index.range_scan(lo, hi, &rel, &io_full).unwrap();

        // Dry run: cumulative match count at each page boundary.
        let io_dry = IoContext::cold(StorageConfig::SsdHdd);
        let mut cursor = index.range_cursor(lo, hi, &rel, &io_dry).unwrap();
        let mut boundaries = Vec::new();
        let mut cum = 0u64;
        while let Some(page) = cursor.next_page_matches() {
            cum += page.len() as u64;
            boundaries.push(cum);
            cursor.advance();
        }
        drop(cursor);
        let Some(&k) = boundaries.iter().find(|&&c| c > 0 && c < cum) else {
            continue; // single-page result; nothing to align on
        };

        let io_head = IoContext::cold(StorageConfig::SsdHdd);
        let (head, token, head_pages) = drain_limited(index, lo, hi, k, &rel, &io_head);
        assert_eq!(head.len() as u64, k);
        let token = token.expect("remainder exists");
        assert_eq!(token.slot(), 0, "case {case}: boundary-aligned cut");

        let io_rest = IoContext::cold(StorageConfig::SsdHdd);
        let mut rest_cursor = index.resume_range_cursor(&token, &rel, &io_rest).unwrap();
        let rest = drain(&mut rest_cursor);
        let rest_pages = rest_cursor.io().pages_read;
        drop(rest_cursor);

        let mut whole = head;
        whole.extend(rest);
        assert_eq!(whole, full.matches, "case {case}: lossless pagination");
        assert_eq!(
            head_pages + rest_pages,
            full.pages_read,
            "case {case}: no data page read twice across the resume"
        );
        // Same cost model too: every walked data page is one
        // sequential read and the seek's random reads happen in the
        // head of both scans, so the split scan's data time equals the
        // full scan's.
        assert_eq!(
            io_head.data.snapshot().sim_ns + io_rest.data.snapshot().sim_ns,
            io_full.data.snapshot().sim_ns,
            "case {case}: data-device time is split, not grown"
        );
    }
}

/// BF-Tree ranges that start and end mid-leaf, where the ordered walk
/// seeks `lo`'s page and stops past `hi`: on both ordered layouts,
/// `limit(k)` + resume equals the full drain for every `k`, and a cut
/// on a page boundary re-reads no data page.
#[test]
fn bftree_mid_leaf_range_paginates_exactly() {
    for duplicates in [Duplicates::Unique, Duplicates::Contiguous] {
        let rel = relation(duplicates);
        let tree = BfTree::builder().fpp(1e-4).build(&rel).unwrap();
        let index: &dyn AccessMethod = &tree;
        let leaf = &tree.leaves()[1];
        let lo = leaf.min_key + (leaf.max_key - leaf.min_key) / 3;
        let hi = lo + (leaf.max_key - leaf.min_key) / 3;
        let io_full = IoContext::cold(StorageConfig::SsdHdd);
        let full = index.range_scan(lo, hi, &rel, &io_full).unwrap();
        let total = full.matches.len() as u64;
        assert!(
            full.pages_read < leaf.n_pages() / 2,
            "{duplicates:?}: the walk reads the range, not the leaf"
        );

        // Cumulative matches at each page boundary of the drain.
        let mut cursor = index.range_cursor(lo, hi, &rel, &io_full).unwrap();
        let mut aligned = Vec::new();
        while let Some(page) = cursor.next_page_matches() {
            aligned.push(aligned.last().copied().unwrap_or(0) + page.len() as u64);
            cursor.advance();
        }
        assert!(cursor.continuation().is_none(), "{duplicates:?}: drained");
        drop(cursor);

        for k in [1u64, 5, 16, 17, 100, total / 2, total - 1]
            .into_iter()
            .chain(aligned.iter().copied().filter(|&c| c > 0 && c < total))
        {
            let io = IoContext::cold(StorageConfig::SsdHdd);
            let (head, token, head_pages) = drain_limited(index, lo, hi, k, &rel, &io);
            let token = token.expect("k < result size");
            let io2 = IoContext::cold(StorageConfig::SsdHdd);
            let mut rest_cursor = index.resume_range_cursor(&token, &rel, &io2).unwrap();
            let rest = drain(&mut rest_cursor);
            let rest_pages = rest_cursor.io().pages_read;
            drop(rest_cursor);
            let mut whole = head;
            whole.extend(rest);
            assert_eq!(whole, full.matches, "{duplicates:?} k={k}: lossless");
            let reread = u64::from(token.slot() != 0);
            assert_eq!(
                head_pages + rest_pages,
                full.pages_read + reread,
                "{duplicates:?} k={k}: only a page cut mid-way is read twice"
            );
        }
    }
}

/// BF-Tree resume across duplicate runs that **span BF-leaf
/// boundaries**: varying run lengths misalign runs with page and leaf
/// boundaries, and a tiny BF-leaf page size forces runs across
/// leaves — the resume descent then lands on a leaf *left* of the
/// token's partition (the `push_candidates` case), and the cursor's
/// page frontier must survive the skip over that leaf instead of
/// regressing and re-delivering consumed pages.
#[test]
fn bftree_resume_across_spanning_runs_never_redelivers() {
    use bftree::BfTreeConfig;
    let counts = [5usize, 31, 11, 50, 7, 19, 3, 27];
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for key in 0..600u64 {
        for _ in 0..counts[key as usize % counts.len()] {
            heap.append_record(key, key);
        }
    }
    let rel = Relation::new(heap, PK_OFFSET, Duplicates::Contiguous).unwrap();
    let config = BfTreeConfig {
        page_size: 512,
        fpp: 1e-4,
        ..BfTreeConfig::paper_default()
    };
    let tree = BfTree::builder()
        .config(config)
        .duplicates_from_relation()
        .build(&rel)
        .unwrap();
    let index: &dyn AccessMethod = &tree;
    for (lo, hi) in [(140u64, 400u64), (0, 50), (97, 311)] {
        let io_full = IoContext::cold(StorageConfig::SsdHdd);
        let full = index.range_scan(lo, hi, &rel, &io_full).unwrap();
        let total = full.matches.len() as u64;
        for k in [1u64, 17, 100, 379, total.saturating_sub(1).max(1)] {
            let io = IoContext::cold(StorageConfig::SsdHdd);
            let (head, token, head_pages) = drain_limited(index, lo, hi, k, &rel, &io);
            let Some(token) = token else {
                assert_eq!(head.len() as u64, total, "[{lo},{hi}] k={k}: early None");
                continue;
            };
            let io2 = IoContext::cold(StorageConfig::SsdHdd);
            let mut rest_cursor = index.resume_range_cursor(&token, &rel, &io2).unwrap();
            let rest = drain(&mut rest_cursor);
            let mut whole = head;
            whole.extend(rest);
            assert_eq!(
                whole, full.matches,
                "[{lo},{hi}] k={k}: resume re-delivered or lost matches"
            );
            assert!(
                head_pages + rest_cursor.io().pages_read <= full.pages_read + 1,
                "[{lo},{hi}] k={k}: consumed prefix rescanned"
            );
        }
    }
}

/// Limits cut *inside* a page of duplicates: the continuation's slot
/// frontier hands back the page tail without losing or duplicating a
/// match (every index, contiguous-duplicate layout).
#[test]
fn sub_page_cuts_resume_without_loss_or_duplication() {
    let rel = relation(Duplicates::Contiguous);
    for index in all_indexes(&rel) {
        let name = index.name();
        let (lo, hi) = (40u64, 80u64);
        let io_full = IoContext::cold(StorageConfig::SsdHdd);
        let full = index.range_scan(lo, hi, &rel, &io_full).unwrap();
        // CARD duplicates per key and 16 tuples per page guarantee
        // mid-page cuts for most k.
        for k in [3u64, 5, 17, 33] {
            let io = IoContext::cold(StorageConfig::SsdHdd);
            let (head, token, _) = drain_limited(index.as_ref(), lo, hi, k, &rel, &io);
            let token = token.expect("k < result size");
            let io2 = IoContext::cold(StorageConfig::SsdHdd);
            let mut rest_cursor = index.resume_range_cursor(&token, &rel, &io2).unwrap();
            let rest = drain(&mut rest_cursor);
            let mut whole = head;
            whole.extend(rest);
            assert_eq!(whole, full.matches, "{name}: k={k}");
        }
    }
}
