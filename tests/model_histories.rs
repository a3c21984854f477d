//! Model-based differential histories: a seeded generator emits
//! histories of probes, batched probes, range scans, paginated scans
//! (`limit(k)`, then a resume from the continuation token), inserts
//! (append the tuple, then index it), deletes and, on a unique
//! relation, inserts at the heap's tail of keys that are not live (a
//! deleted key again, a key below every base key, a key in a gap
//! between two base keys). Each history runs on the sim backend
//! against every access method at once — the BF-Tree under both
//! duplicate handlings (its §7 `scan_range_probing` included), the
//! B+-Tree, the FD-Tree, the hash index, a `DurableIndex<BfTree>`
//! with a small flush batch and a three-shard `ShardedIndex` of
//! BF-Trees with the same flush batch — and every answer is checked
//! against a `BTreeMap` oracle. A delete marks the heap, so every
//! access method runs over a relation of its own, each the same
//! tuples at the same locations. A BF-Tree's structural invariants
//! (`BfTree::check_invariants`, its routing included) hold after every
//! op, and its history ends with the heap-aware one
//! (`BfTree::check_heap_invariants`, no false negatives).
//!
//! An `Unsupported` answer passes only where the index documents it:
//! the hash index's range scan over a span of 2^20 keys or more.
//! A seed that once failed stays in `REGRESSION_SEEDS`. Not here yet:
//! a shrinker, and crash / recover / fault histories.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::AssertUnwindSafe;

use bftree::{BfTree, BfTreeConfig, DuplicateHandling};
use bftree_access::{
    AccessMethod, DurableConfig, DurableIndex, ProbeError, RangeCursor, RangeCursorExt,
};
use bftree_btree::{BPlusTree, BTreeConfig};
use bftree_fdtree::FdTree;
use bftree_hashindex::HashIndex;
use bftree_shard::{ShardPlan, ShardedIndex};
use bftree_storage::tuple::{ATT1_OFFSET, PK_OFFSET};
use bftree_storage::{
    Backend, DeviceKind, Duplicates, HeapFile, IoContext, PageId, Relation, TupleLayout,
};
use bftree_wal::DurabilityMode;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Tuples in a history's base relation.
const BASE_TUPLES: u64 = 1_200;
/// Operations per history.
const OPS: usize = 70;
/// Seeded histories per relation kind: 32 in a debug build, what the
/// tier-1 suite runs, and 256 in an optimised one.
const HISTORIES: u64 = if cfg!(debug_assertions) { 32 } else { 256 };
/// The hash index enumerates a range key by key and refuses a span of
/// this many keys or more (`Unsupported`).
const HASH_RANGE_CAP: u64 = 1 << 20;
/// Seeds that once failed, replayed on both relation kinds.
const REGRESSION_SEEDS: &[u64] = &[
    // The §7 probing scan returned a deleted key; a durable range scan
    // delivered a buffered tuple twice (the base's heap scan saw it).
    // With deleted keys inserted again: a durable scan took a buffered
    // tuple behind larger keys in a page taken whole, a shard delivered
    // another shard's such tuple, and a resumed merged walk skipped a
    // leaf left of the frontier key's.
    0xB0DE_6A00,
    // A BF-Tree probe delivered a duplicate run twice when it crossed
    // into the next candidate leaf.
    0xB0DE_6A03,
    // An FD-Tree probe missed a run's head on the page before its fence.
    0xB0DE_6A1B,
    // A durable insert cancelled before its flush left its tuple
    // visible once the leaf's key range grew over it.
    0xB0DE_6A5E,
    // A durable probe delivered a buffered tuple twice.
    0xB0DE_6AE4,
    // The §7 probing scan lost a run going on past a page shared by
    // split siblings.
    0xB0DE_6CB8,
    // The ordered range walk stopped at a leaf starting above `hi`
    // while a run of `hi` went on into its first page.
    0xB0DE_6DB4,
    // A shard's key inserted again behind another shard's larger keys:
    // its shard's ordered walk stopped before the key's page.
    0xB0DE_6B15,
];

type Loc = (PageId, usize);

#[derive(Debug, Clone)]
enum Op {
    Probe(u64),
    /// `probe_batch` over live, deleted and absent keys.
    ProbeBatch(Vec<u64>),
    Range(u64, u64),
    /// Deliver `k` matches of `[lo, hi]`, then resume for the rest.
    Paginate(u64, u64, u64),
    Insert(u64),
    Delete(u64),
}

/// A relation ordered on its indexed attribute: keys step by 1 or 2
/// (some values are absent), once each (`Unique`, indexed on PK) or in
/// runs of 1–6 tuples (`Contiguous`, indexed on ATT1).
fn relation(duplicates: Duplicates, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let unique = duplicates == Duplicates::Unique;
    let attr = if unique { PK_OFFSET } else { ATT1_OFFSET };
    let heap = HeapFile::new(TupleLayout::new(256));
    let mut rel = Relation::new(heap, attr, duplicates).unwrap();
    let mut key = 10u64;
    while rel.heap().tuple_count() < BASE_TUPLES {
        let run = if unique {
            1
        } else {
            rng.random_range(1..=6u64)
        };
        for _ in 0..run {
            append(&mut rel, key);
        }
        key += rng.random_range(1..=2u64);
    }
    rel
}

/// Append a tuple carrying `key` on `rel`'s indexed attribute.
fn append(rel: &mut Relation, key: u64) -> Loc {
    let other = if rel.is_unique() {
        key / 3
    } else {
        rel.heap().tuple_count()
    };
    rel.append_tuple(key, other, &IoContext::unmetered())
}

/// The history for `seed` over `rel`. Inserts append keys at or above
/// the largest key so far, so the relation stays ordered; a `Unique`
/// relation gets a fresh key each time, a `Contiguous` one may extend
/// the last run. `with_reinserts` adds the inserts of deleted keys.
fn history(seed: u64, rel: &Relation) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let unique = rel.duplicates() == Duplicates::Unique;
    let mut live: Vec<u64> = rel
        .heap()
        .iter_attr(rel.attr())
        .map(|(_, _, k)| k)
        .collect();
    live.dedup();
    let mut dead: Vec<u64> = Vec::new();
    let mut max = *live.last().unwrap();
    let mut ops = Vec::with_capacity(OPS);
    for _ in 0..OPS {
        let pick = |rng: &mut StdRng, live: &[u64], dead: &[u64]| match rng.random_range(0..10u32) {
            0..=6 if !live.is_empty() => live[rng.random_range(0..live.len())],
            7 if !dead.is_empty() => dead[rng.random_range(0..dead.len())],
            _ => rng.random_range(0..=max + 10),
        };
        let op = match rng.random_range(0..100u32) {
            0..=24 => Op::Probe(pick(&mut rng, &live, &dead)),
            25..=64 => {
                let lo = pick(&mut rng, &live, &dead).saturating_sub(rng.random_range(0..8u64));
                let span = match rng.random_range(0..10u32) {
                    0..=5 => rng.random_range(0..40u64),
                    6..=8 => rng.random_range(0..800u64),
                    _ => HASH_RANGE_CAP + rng.random_range(0..1_000u64),
                };
                if rng.random_range(0..100u32) < 60 {
                    Op::Range(lo, lo + span)
                } else {
                    Op::Paginate(lo, lo + span, rng.random_range(1..=80u64))
                }
            }
            65..=84 => {
                let extend = !unique && live.last() == Some(&max) && rng.random_bool(0.4);
                if !extend {
                    max += rng.random_range(1..=2u64);
                    live.push(max);
                }
                Op::Insert(max)
            }
            _ => {
                let key = pick(&mut rng, &live, &dead);
                if let Some(i) = live.iter().position(|&k| k == key) {
                    dead.push(live.remove(i));
                }
                Op::Delete(key)
            }
        };
        ops.push(op);
    }
    ops
}

/// `ops` with a `ProbeBatch` of 2–40 keys after about one op in four,
/// drawn from a stream of its own, so the ops `history` emits for a
/// seed stay what they were. Each batch mixes the keys live at its
/// step (three in five), deleted ones and absent ones.
fn with_batches(seed: u64, rel: &Relation, ops: Vec<Op>) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C_4ED0);
    let mut live: Vec<u64> = rel
        .heap()
        .iter_attr(rel.attr())
        .map(|(_, _, k)| k)
        .collect();
    live.dedup();
    let mut dead: Vec<u64> = Vec::new();
    let mut out = Vec::with_capacity(ops.len() * 5 / 4);
    for op in ops {
        match op {
            Op::Insert(key) if live.last() != Some(&key) => live.push(key),
            Op::Delete(key) => {
                if let Some(i) = live.iter().position(|&k| k == key) {
                    dead.push(live.remove(i));
                }
            }
            _ => {}
        }
        out.push(op);
        if rng.random_range(0..4u32) == 0 {
            let max = live
                .last()
                .copied()
                .unwrap_or(0)
                .max(dead.iter().copied().max().unwrap_or(0));
            let keys = (0..rng.random_range(2..=40usize))
                .map(|_| match rng.random_range(0..5u32) {
                    0..=2 if !live.is_empty() => live[rng.random_range(0..live.len())],
                    3 if !dead.is_empty() => dead[rng.random_range(0..dead.len())],
                    _ => rng.random_range(0..=max + 10),
                })
                .collect();
            out.push(Op::ProbeBatch(keys));
        }
    }
    out
}

/// `ops` with, on a `Unique` relation, an insert of a deleted key after
/// about one op in six: the key's tuple appended again at the heap's
/// tail, behind larger keys. Drawn from a stream of its own, so the
/// ops `history` and `with_batches` emit for a seed stay what they
/// were. A `Contiguous` relation gets none: a key appended behind
/// larger ones breaks the ordered layout it declares, which the
/// B+-Tree's first-reference range walk relies on.
fn with_reinserts(seed: u64, rel: &Relation, ops: Vec<Op>) -> Vec<Op> {
    if rel.duplicates() != Duplicates::Unique {
        return ops;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4E1A_5E27);
    let mut live: BTreeSet<u64> = rel
        .heap()
        .iter_attr(rel.attr())
        .map(|(_, _, k)| k)
        .collect();
    let mut dead: Vec<u64> = Vec::new();
    let mut out = Vec::with_capacity(ops.len() * 7 / 6);
    for op in ops {
        match op {
            Op::Delete(key) if live.remove(&key) => dead.push(key),
            Op::Insert(key) => {
                live.insert(key);
                dead.retain(|&k| k != key);
            }
            _ => {}
        }
        out.push(op);
        if !dead.is_empty() && rng.random_range(0..6u32) == 0 {
            let key = dead.swap_remove(rng.random_range(0..dead.len()));
            live.insert(key);
            out.push(Op::Insert(key));
        }
    }
    out
}

/// `ops` with, on a `Unique` relation, an insert of a key that is not
/// live after about one op in eight, probed right after: a key below
/// the base's first key, a key absent from a gap between two base
/// keys, or a deleted key that no later op inserts again. Drawn from a
/// stream of its own, so the ops `history`, `with_batches` and
/// `with_reinserts` emit for a seed stay what they were. A
/// `Contiguous` relation gets none, for the reason `with_reinserts`
/// gives.
fn with_absent_inserts(seed: u64, rel: &Relation, ops: Vec<Op>) -> Vec<Op> {
    if rel.duplicates() != Duplicates::Unique {
        return ops;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xAB5E_4700);
    let mut live: BTreeSet<u64> = rel
        .heap()
        .iter_attr(rel.attr())
        .map(|(_, _, k)| k)
        .collect();
    let (first, last) = (*live.first().unwrap(), *live.last().unwrap());
    let mut below: Vec<u64> = (0..first).collect();
    let mut gaps: Vec<u64> = (first..last).filter(|k| !live.contains(k)).collect();
    let mut dead: Vec<u64> = Vec::new();
    // Inserts still ahead, per key: a deleted key one of them takes
    // back is not drawn (two live tuples of one `Unique` key).
    let mut ahead: HashMap<u64, usize> = HashMap::new();
    for op in &ops {
        if let Op::Insert(key) = *op {
            *ahead.entry(key).or_default() += 1;
        }
    }
    let mut out = Vec::with_capacity(ops.len() * 5 / 4);
    for op in ops {
        match op {
            Op::Delete(key) if live.remove(&key) => dead.push(key),
            Op::Insert(key) => {
                live.insert(key);
                dead.retain(|&k| k != key);
                *ahead.get_mut(&key).unwrap() -= 1;
            }
            _ => {}
        }
        out.push(op);
        if rng.random_range(0..8u32) != 0 {
            continue;
        }
        dead.retain(|k| ahead.get(k).is_none_or(|&n| n == 0));
        let from = match rng.random_range(0..3u32) {
            0 => &mut below,
            1 => &mut gaps,
            _ => &mut dead,
        };
        if !from.is_empty() {
            let key = from.swap_remove(rng.random_range(0..from.len()));
            live.insert(key);
            out.push(Op::Insert(key));
            out.push(Op::Probe(key));
        }
    }
    out
}

/// One access method under test.
enum Subject {
    /// A BF-Tree checked through the trait and through its §7 probing
    /// scan.
    Bf(BfTree),
    /// A `DurableIndex` over a BF-Tree, whose base tree is checked once
    /// its memtable is flushed.
    Durable(Box<DurableIndex<BfTree>>),
    Other(Box<dyn AccessMethod>),
}

impl Subject {
    fn index(&self) -> &dyn AccessMethod {
        match self {
            Subject::Bf(tree) => tree,
            Subject::Durable(index) => index,
            Subject::Other(index) => index.as_ref(),
        }
    }

    fn index_mut(&mut self) -> &mut dyn AccessMethod {
        match self {
            Subject::Bf(tree) => tree,
            Subject::Durable(index) => index,
            Subject::Other(index) => index.as_mut(),
        }
    }

    /// The structural invariants of a BF-Tree subject (of a durable
    /// one's base tree, which need not hold every write yet).
    fn check_invariants(&self) {
        match self {
            Subject::Bf(tree) => tree.check_invariants(),
            Subject::Durable(index) => index.inner().check_invariants(),
            Subject::Other(_) => {}
        }
    }

    /// The heap-aware invariant of a BF-Tree subject over `rel`, all of
    /// whose live tuples it indexes.
    fn check_heap_invariants(&mut self, rel: &Relation) {
        match self {
            Subject::Bf(tree) => tree.check_heap_invariants(rel),
            Subject::Durable(index) => {
                index.flush(rel).expect("flush");
                index.inner().check_heap_invariants(rel);
            }
            Subject::Other(_) => {}
        }
    }
}

/// Every access method, built over `rel`. BF-Tree leaves are small
/// (64-byte filter blocks) so histories cross dozens of leaves and
/// their inserts split them. The sharded subject cuts the base domain
/// in three, so its writes, flushes and paginated scans cross
/// bulk-built shard boundaries.
fn subjects(rel: &Relation) -> Vec<(String, Subject)> {
    let config = BfTreeConfig {
        page_size: 512,
        leaf_header_reserve: 448,
        fpp: 1e-2,
        ..BfTreeConfig::paper_default()
    };
    let bf = |duplicates| {
        BfTree::builder()
            .config(config)
            .duplicates(duplicates)
            .build(rel)
            .unwrap()
    };
    let mut others: Vec<Box<dyn AccessMethod>> = vec![
        Box::new(BPlusTree::new(BTreeConfig::paper_default())),
        Box::new(FdTree::new()),
        Box::new(HashIndex::with_capacity(16, 0xC0FFEE)),
    ];
    for index in &mut others {
        index.build(rel).unwrap();
    }
    let log = Backend::Sim.device(DeviceKind::Ssd, "wal").unwrap();
    let flush_batch_3 = DurableConfig {
        flush_batch: 3,
        durability: DurabilityMode::GroupCommit {
            max_records: 4,
            max_bytes: 4 * 1024,
        },
    };
    let durable = DurableIndex::new(
        bf(DuplicateHandling::FirstPageOnly),
        rel,
        log,
        flush_batch_3,
    );
    // Three bulk-built shards, cut inside the base domain.
    let keys: Vec<u64> = rel
        .heap()
        .iter_attr(rel.attr())
        .map(|(_, _, k)| k)
        .collect();
    let cut = |i: usize| keys[i * keys.len() / 3];
    let mut sharded = ShardedIndex::new(
        ShardPlan::from_bounds(vec![cut(1), cut(2)]),
        rel,
        flush_batch_3,
        |_| Box::new(BfTree::builder().config(config).empty(rel).unwrap()),
        |s| {
            Backend::Sim
                .device(DeviceKind::Ssd, &format!("wal-shard{s}"))
                .unwrap()
        },
    );
    sharded.build(rel).unwrap();
    let mut all = vec![
        (
            "bf-tree/first-page-only".to_string(),
            Subject::Bf(bf(DuplicateHandling::FirstPageOnly)),
        ),
        (
            "bf-tree/all-covering-pages".to_string(),
            Subject::Bf(bf(DuplicateHandling::AllCoveringPages)),
        ),
        (
            "durable bf-tree".to_string(),
            Subject::Durable(Box::new(durable)),
        ),
        (
            "three-shard bf-tree".to_string(),
            Subject::Other(Box::new(sharded)),
        ),
    ];
    all.extend(
        others
            .into_iter()
            .map(|index| (index.name().to_string(), Subject::Other(index))),
    );
    all
}

fn drain(cursor: &mut dyn RangeCursor) -> Vec<Loc> {
    let mut out = Vec::new();
    while let Some(page) = cursor.next_page_matches() {
        out.extend_from_slice(page);
        cursor.advance();
    }
    out
}

/// `lo..=hi`'s matches as delivered by `limit(k)` and a resume.
fn paginate(
    index: &dyn AccessMethod,
    lo: u64,
    hi: u64,
    k: u64,
    rel: &Relation,
) -> Result<(Vec<Loc>, usize), ProbeError> {
    let io = IoContext::unmetered();
    let mut head = index.range_cursor(lo, hi, rel, &io)?.limit(k);
    let mut got = drain(&mut head);
    let delivered = got.len();
    if let Some(token) = head.continuation() {
        got.extend(drain(index.resume_range_cursor(&token, rel, &io)?.as_mut()));
    }
    Ok((got, delivered))
}

fn sorted(mut locs: Vec<Loc>) -> Vec<Loc> {
    locs.sort_unstable();
    locs
}

/// Run `ops` over `rel` on every subject, checking each answer against
/// the oracle: every live key and the heap locations indexed for it.
/// Each subject runs over its own copy of `rel`, whose appends land
/// where the oracle's do.
fn run(label: &str, mut rel: Relation, ops: &[Op]) {
    let mut oracle: BTreeMap<u64, Vec<Loc>> = BTreeMap::new();
    for (pid, slot, key) in rel.heap().iter_attr(rel.attr()) {
        oracle.entry(key).or_default().push((pid, slot));
    }
    let mut subjects: Vec<(String, Subject, Relation)> = subjects(&rel)
        .into_iter()
        .map(|(name, s)| (name, s, rel.clone()))
        .collect();
    let io = IoContext::unmetered();
    for (step, op) in ops.iter().enumerate() {
        // In location order: a key inserted again sits behind larger
        // keys.
        let range = |lo: u64, hi: u64| -> Vec<Loc> {
            sorted(
                oracle
                    .range(lo..=hi)
                    .flat_map(|(_, l)| l.iter().copied())
                    .collect(),
            )
        };
        match *op {
            Op::Insert(key) => {
                let loc = append(&mut rel, key);
                oracle.entry(key).or_default().push(loc);
                for (name, s, rel) in &mut subjects {
                    assert_eq!(append(rel, key), loc, "{name}'s heap");
                    s.index_mut()
                        .insert(key, loc, rel)
                        .unwrap_or_else(|e| panic!("{label} step {step} {op:?}: {name}: {e}"));
                }
            }
            Op::Delete(key) => {
                oracle.remove(&key);
                for (name, s, rel) in &mut subjects {
                    s.index_mut()
                        .delete(key, rel)
                        .unwrap_or_else(|e| panic!("{label} step {step} {op:?}: {name}: {e}"));
                }
            }
            Op::Probe(key) => {
                let want = oracle.get(&key).cloned().unwrap_or_default();
                for (name, s, rel) in &subjects {
                    let got = s.index().probe(key, rel, &io).map(|p| sorted(p.matches));
                    check(label, step, op, name, got, &want);
                }
            }
            Op::ProbeBatch(ref keys) => {
                for (name, s, rel) in &subjects {
                    let got = s
                        .index()
                        .probe_batch(keys, rel, &io)
                        .unwrap_or_else(|e| panic!("{label} step {step} {op:?}: {name}: {e}"));
                    assert_eq!(got.len(), keys.len(), "{label} step {step}: {name}");
                    for (i, (probe, key)) in got.into_iter().zip(keys).enumerate() {
                        let want = oracle.get(key).cloned().unwrap_or_default();
                        let name = format!("{name} (key #{i}, {key})");
                        check(label, step, op, &name, Ok(sorted(probe.matches)), &want);
                    }
                }
            }
            Op::Range(lo, hi) => {
                let want = range(lo, hi);
                for (name, s, rel) in &subjects {
                    let got = s
                        .index()
                        .range_scan(lo, hi, rel, &io)
                        .map(|r| sorted(r.matches));
                    check(label, step, op, name, got, &want);
                    if let Subject::Bf(tree) = s {
                        let got = tree
                            .scan_range_probing(lo, hi, rel, &io)
                            .map(|r| sorted(r.matches));
                        check(
                            label,
                            step,
                            op,
                            &format!("{name} (§7 probing scan)"),
                            got,
                            &want,
                        );
                    }
                }
            }
            Op::Paginate(lo, hi, k) => {
                let want = range(lo, hi);
                for (name, s, rel) in &subjects {
                    let got = paginate(s.index(), lo, hi, k, rel).map(|(got, head)| {
                        assert_eq!(
                            head,
                            want.len().min(k as usize),
                            "{label} step {step} {op:?}: {name}: limit({k}) delivered"
                        );
                        sorted(got)
                    });
                    check(label, step, op, name, got, &want);
                }
            }
        }
        for (name, s, _) in &subjects {
            let checked = std::panic::catch_unwind(AssertUnwindSafe(|| s.check_invariants()));
            checked.unwrap_or_else(|_| panic!("{label} step {step} {op:?}: {name}'s invariants"));
        }
    }
    for (_, s, rel) in &mut subjects {
        s.check_heap_invariants(rel);
    }
}

/// `got` equals `want`, or is an `Unsupported` the index documents.
fn check(
    label: &str,
    step: usize,
    op: &Op,
    name: &str,
    got: Result<Vec<Loc>, ProbeError>,
    want: &[Loc],
) {
    let documented = match *op {
        Op::Range(lo, hi) | Op::Paginate(lo, hi, _) => name == "hash" && hi - lo >= HASH_RANGE_CAP,
        _ => false,
    };
    let at = format!("{label} step {step} {op:?}: {name}");
    match got {
        Ok(_) if documented => panic!("{at}: answered a documented Unsupported"),
        Ok(got) => {
            let first = got.iter().zip(want).position(|(g, w)| g != w);
            let diverge = first.unwrap_or(got.len().min(want.len()));
            assert!(
                got == want,
                "{at}: {} matches, the oracle {}; first divergence at {diverge}: {:?} vs {:?}",
                got.len(),
                want.len(),
                got.get(diverge),
                want.get(diverge),
            );
        }
        Err(ProbeError::Unsupported { .. }) if documented => {}
        Err(e) => panic!("{at}: {e}"),
    }
}

fn run_seed(seed: u64) {
    for duplicates in [Duplicates::Unique, Duplicates::Contiguous] {
        let rel = relation(duplicates, seed);
        let ops = with_batches(seed, &rel, history(seed, &rel));
        let ops = with_reinserts(seed, &rel, ops);
        let ops = with_absent_inserts(seed, &rel, ops);
        run(&format!("seed {seed:#x} / {duplicates:?}"), rel, &ops);
    }
}

#[test]
fn seeded_histories_match_the_oracle_on_every_index() {
    for seed in 0..HISTORIES {
        run_seed(0xB0DE_6A00 + seed);
    }
}

#[test]
fn regression_seeds_match_the_oracle_on_every_index() {
    for &seed in REGRESSION_SEEDS {
        run_seed(seed);
    }
}

/// Every cut of a paginated scan whose last duplicate run crosses into a
/// leaf starting above `hi` resumes without loss: the state seed
/// `0xB0DE_6DB4` reaches on its `Contiguous` relation at step 68.
#[test]
fn every_cut_of_a_run_crossing_into_the_next_leaf_resumes_exactly() {
    let seed = 0xB0DE_6DB4;
    let rel = relation(Duplicates::Contiguous, seed);
    let mut ops = history(seed, &rel)[..68].to_vec();
    ops.extend((1..=150).map(|k| Op::Paginate(414, 484, k)));
    run("every cut", rel, &ops);
}
