//! The B+-Tree proper: bulk load, search, range scan, insert, delete.

use bftree_storage::PageDevice;

use crate::node::{BTreeConfig, DuplicateMode, Node, NodeId};
use crate::tupleref::TupleRef;

/// A page-based B+-Tree over u64 keys.
///
/// Nodes live in an arena; a node's arena index doubles as its page id
/// within the index file, which is what gets charged to the index
/// [`PageDevice`] on traversal.
#[derive(Debug, Clone)]
pub struct BPlusTree {
    config: BTreeConfig,
    nodes: Vec<Node>,
    root: NodeId,
    height: usize,
    first_leaf: NodeId,
    n_entries: u64,
}

impl BPlusTree {
    /// Bulk-load a tree from `entries`, which must be sorted by key
    /// (ties in any order). In [`DuplicateMode::FirstRef`] mode only the
    /// first entry of each distinct key is stored.
    ///
    /// One pass over the input builds packed leaves; further passes
    /// build each internal level — the classic bottom-up bulk load the
    /// paper assumes for all its trees.
    pub fn bulk_build<I>(config: BTreeConfig, entries: I) -> Self
    where
        I: IntoIterator<Item = (u64, TupleRef)>,
    {
        let per_leaf = config.bulk_leaf_entries();
        let mut nodes: Vec<Node> = Vec::new();
        let mut leaf_ids: Vec<NodeId> = Vec::new();
        let mut leaf_min_keys: Vec<u64> = Vec::new();

        let mut keys: Vec<u64> = Vec::with_capacity(per_leaf);
        let mut refs: Vec<TupleRef> = Vec::with_capacity(per_leaf);
        let mut last_key: Option<u64> = None;
        let mut prev_seen: Option<u64> = None;
        let mut n_entries = 0u64;

        let flush = |keys: &mut Vec<u64>,
                     refs: &mut Vec<TupleRef>,
                     nodes: &mut Vec<Node>,
                     leaf_ids: &mut Vec<NodeId>,
                     leaf_min_keys: &mut Vec<u64>| {
            if keys.is_empty() {
                return;
            }
            let id = nodes.len() as NodeId;
            leaf_min_keys.push(keys[0]);
            nodes.push(Node::Leaf {
                keys: std::mem::take(keys),
                refs: std::mem::take(refs),
                next: None,
            });
            leaf_ids.push(id);
        };

        for (key, tref) in entries {
            if let Some(prev) = prev_seen {
                assert!(
                    key >= prev,
                    "bulk_build input must be sorted: {key} after {prev}"
                );
            }
            prev_seen = Some(key);
            if config.duplicates == DuplicateMode::FirstRef && last_key == Some(key) {
                continue;
            }
            last_key = Some(key);
            keys.push(key);
            refs.push(tref);
            n_entries += 1;
            if keys.len() == per_leaf {
                flush(
                    &mut keys,
                    &mut refs,
                    &mut nodes,
                    &mut leaf_ids,
                    &mut leaf_min_keys,
                );
            }
        }
        flush(
            &mut keys,
            &mut refs,
            &mut nodes,
            &mut leaf_ids,
            &mut leaf_min_keys,
        );

        if leaf_ids.is_empty() {
            // Empty tree: a single empty leaf.
            nodes.push(Node::Leaf {
                keys: Vec::new(),
                refs: Vec::new(),
                next: None,
            });
            leaf_ids.push(0);
            leaf_min_keys.push(0);
        }

        // Chain the leaves.
        for w in leaf_ids.windows(2) {
            let (prev, next) = (w[0], w[1]);
            if let Node::Leaf { next: n, .. } = &mut nodes[prev as usize] {
                *n = Some(next);
            }
        }

        // Build internal levels bottom-up.
        let mut level_ids = leaf_ids.clone();
        let mut level_mins = leaf_min_keys;
        let mut height = 1usize;
        while level_ids.len() > 1 {
            let mut next_ids = Vec::new();
            let mut next_mins = Vec::new();
            for chunk_start in (0..level_ids.len()).step_by(config.bulk_fanout()) {
                let chunk_end = (chunk_start + config.bulk_fanout()).min(level_ids.len());
                let children: Vec<NodeId> = level_ids[chunk_start..chunk_end].to_vec();
                let keys: Vec<u64> = level_mins[chunk_start + 1..chunk_end].to_vec();
                let id = nodes.len() as NodeId;
                next_mins.push(level_mins[chunk_start]);
                nodes.push(Node::Internal { keys, children });
                next_ids.push(id);
            }
            level_ids = next_ids;
            level_mins = next_mins;
            height += 1;
        }

        Self {
            config,
            root: level_ids[0],
            height,
            first_leaf: leaf_ids[0],
            nodes,
            n_entries,
        }
    }

    /// An empty tree ready for inserts.
    pub fn new(config: BTreeConfig) -> Self {
        Self::bulk_build(config, std::iter::empty())
    }

    /// Tree configuration.
    pub fn config(&self) -> &BTreeConfig {
        &self.config
    }

    /// Height in levels (1 = a single leaf). The paper's `BPh`.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of stored entries (post-dedup in `FirstRef` mode).
    pub fn n_entries(&self) -> u64 {
        self.n_entries
    }

    /// Number of leaf pages (the paper's `BPleaves`).
    pub fn leaf_pages(&self) -> u64 {
        self.nodes.iter().filter(|n| n.is_leaf()).count() as u64
    }

    /// Number of internal pages, root included.
    pub fn internal_pages(&self) -> u64 {
        self.nodes.iter().filter(|n| !n.is_leaf()).count() as u64
    }

    /// Total index pages (the paper's `BPsize / pagesize`).
    pub fn total_pages(&self) -> u64 {
        self.nodes.len() as u64
    }

    /// Index size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.total_pages() * self.config.page_size as u64
    }

    /// Ids of all non-leaf nodes (for warm-cache prewarming).
    pub fn internal_node_ids(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.is_leaf())
            .map(|(i, _)| i as u64)
            .collect()
    }

    /// Ids of every node.
    pub fn all_node_ids(&self) -> Vec<u64> {
        (0..self.nodes.len() as u64).collect()
    }

    #[inline]
    fn charge(&self, dev: Option<&PageDevice>, node: NodeId) {
        if let Some(dev) = dev {
            dev.read_random(node as u64);
        }
    }

    /// Walk from the root to the *rightmost* leaf whose key range can
    /// contain `key`, charging one random index read per level. Exact
    /// for point search and insert even under duplicate keys (any
    /// leaf holding `key` has min ≤ `key`, and all later leaves have
    /// min > `key`).
    fn descend(&self, key: u64, dev: Option<&PageDevice>) -> NodeId {
        self.descend_with(key, |id| self.charge(dev, id))
    }

    /// [`Self::descend`]'s walk, handing each node it reads to `visit`
    /// instead of charging it.
    fn descend_with(&self, key: u64, mut visit: impl FnMut(NodeId)) -> NodeId {
        let mut id = self.root;
        loop {
            visit(id);
            match &self.nodes[id as usize] {
                Node::Internal { keys, children } => {
                    let child = keys.partition_point(|&k| k <= key);
                    id = children[child];
                }
                Node::Leaf { .. } => return id,
            }
        }
    }

    /// Walk to the *leftmost* leaf that can contain `key`. Used by
    /// [`Self::search_all`], [`Self::range`] and [`Self::delete`],
    /// which then scan rightward across sibling links — necessary when
    /// a run of duplicates spans several leaves (separators repeat).
    fn descend_leftmost(&self, key: u64, dev: Option<&PageDevice>) -> NodeId {
        let mut id = self.root;
        loop {
            self.charge(dev, id);
            match &self.nodes[id as usize] {
                Node::Internal { keys, children } => {
                    let child = keys.partition_point(|&k| k < key);
                    id = children[child];
                }
                Node::Leaf { .. } => return id,
            }
        }
    }

    /// Point search: the first entry with exactly `key`, if any.
    /// Charges `height` random index reads to `dev`.
    pub fn search(&self, key: u64, dev: Option<&PageDevice>) -> Option<TupleRef> {
        let leaf = self.descend(key, dev);
        if let Node::Leaf { keys, refs, .. } = &self.nodes[leaf as usize] {
            let at = keys.partition_point(|&k| k < key);
            if at < keys.len() && keys[at] == key {
                return Some(refs[at]);
            }
        }
        None
    }

    /// Floor search: the entry with the greatest key `≤ key`, if any.
    /// Charges `height` random index reads. This is how the BF-Tree's
    /// upper structure routes a probe to the BF-leaf whose key range
    /// covers it.
    pub fn search_le(&self, key: u64, dev: Option<&PageDevice>) -> Option<(u64, TupleRef)> {
        self.floor_search(key, |id| self.charge(dev, id))
    }

    /// [`Self::search_le`] without a device: appends to `path` the
    /// index page ids `search_le` would charge, in its order, so that a
    /// caller can route now and charge the descent later.
    pub fn search_le_path(&self, key: u64, path: &mut Vec<u64>) -> Option<(u64, TupleRef)> {
        self.floor_search(key, |id| path.push(u64::from(id)))
    }

    /// [`Self::search_le`]'s search, handing each node it reads to
    /// `visit`.
    fn floor_search(&self, key: u64, mut visit: impl FnMut(NodeId)) -> Option<(u64, TupleRef)> {
        let leaf = self.descend_with(key, &mut visit);
        let Node::Leaf { keys, refs, .. } = &self.nodes[leaf as usize] else {
            unreachable!("descend returns leaves");
        };
        let at = keys.partition_point(|&k| k <= key);
        if at > 0 {
            return Some((keys[at - 1], refs[at - 1]));
        }
        // Landed on a leaf whose keys are all > key (or an empty leaf,
        // possible only after deletes): the floor, if any, lies left of
        // this leaf. Leaves are singly linked, so redo one descent
        // biased left of this leaf's min. (For a delete-emptied leaf the
        // min is unknown and we conservatively report no floor; the
        // BF-Tree upper structure never deletes.)
        if leaf == self.first_leaf {
            return None;
        }
        let min = keys.first().copied()?;
        let leaf = self.descend_with(min.checked_sub(1)?, &mut visit);
        let Node::Leaf { keys, refs, .. } = &self.nodes[leaf as usize] else {
            unreachable!()
        };
        let at = keys.partition_point(|&k| k <= key);
        (at > 0).then(|| (keys[at - 1], refs[at - 1]))
    }

    /// [`Self::descend`] that also records the charged node path.
    fn descend_capture(
        &self,
        key: u64,
        dev: Option<&PageDevice>,
        path: &mut Vec<NodeId>,
    ) -> NodeId {
        self.descend_with(key, |id| {
            self.charge(dev, id);
            path.push(id);
        })
    }

    /// Smallest stored key at or after slot `at` of `leaf` (following
    /// leaf links), i.e. the first key strictly greater than a query
    /// whose floor search landed at `at`. `None` when the tree holds
    /// no further key.
    fn next_key_from(&self, leaf: NodeId, at: usize) -> Option<u64> {
        let Node::Leaf { keys, next, .. } = &self.nodes[leaf as usize] else {
            unreachable!("floor searches land on leaves")
        };
        if at < keys.len() {
            return Some(keys[at]);
        }
        let mut cur = *next;
        while let Some(n) = cur {
            let Node::Leaf { keys, next, .. } = &self.nodes[n as usize] else {
                unreachable!()
            };
            if let Some(&k) = keys.first() {
                return Some(k);
            }
            cur = *next;
        }
        None
    }

    /// Start an amortized floor-search cursor (see [`FloorCursor`]).
    pub fn floor_cursor(&self) -> FloorCursor<'_> {
        FloorCursor {
            tree: self,
            valid: false,
            floor: None,
            lo: 0,
            hi: None,
            path: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// All entries with exactly `key`, following leaf links across
    /// page boundaries (meaningful in `PerTuple` mode).
    pub fn search_all(&self, key: u64, dev: Option<&PageDevice>) -> Vec<TupleRef> {
        let mut out = Vec::new();
        let mut leaf = self.descend_leftmost(key, dev);
        loop {
            let Node::Leaf { keys, refs, next } = &self.nodes[leaf as usize] else {
                unreachable!("descend returns leaves");
            };
            let mut at = keys.partition_point(|&k| k < key);
            while at < keys.len() {
                if keys[at] != key {
                    return out; // moved past the duplicate run
                }
                out.push(refs[at]);
                at += 1;
            }
            // Leaf exhausted: the run may continue in the right sibling.
            match next {
                Some(n) => {
                    leaf = *n;
                    self.charge(dev, leaf);
                }
                None => return out,
            }
        }
    }

    /// The first entry with key in `[lo, hi]`, if any — the streaming
    /// complement of [`BPlusTree::range`] for callers that only need
    /// the start of the run (a paginated range cursor locating its
    /// first data page). Charges the descent plus one index read per
    /// extra leaf traversed before the first in-range key, never the
    /// whole range's leaf walk.
    pub fn seek_ge(&self, lo: u64, hi: u64, dev: Option<&PageDevice>) -> Option<(u64, TupleRef)> {
        assert!(lo <= hi);
        let mut leaf = self.descend_leftmost(lo, dev);
        loop {
            let Node::Leaf { keys, refs, next } = &self.nodes[leaf as usize] else {
                unreachable!("descend returns leaves");
            };
            let start = keys.partition_point(|&k| k < lo);
            if start < keys.len() {
                return (keys[start] <= hi).then(|| (keys[start], refs[start]));
            }
            match next {
                Some(n) => {
                    leaf = *n;
                    self.charge(dev, leaf);
                }
                None => return None,
            }
        }
    }

    /// All entries with key in `[lo, hi]`, in key order. Charges the
    /// initial descent plus one index read per extra leaf touched.
    pub fn range(&self, lo: u64, hi: u64, dev: Option<&PageDevice>) -> Vec<(u64, TupleRef)> {
        assert!(lo <= hi);
        let mut out = Vec::new();
        let mut leaf = self.descend_leftmost(lo, dev);
        loop {
            let Node::Leaf { keys, refs, next } = &self.nodes[leaf as usize] else {
                unreachable!("descend returns leaves");
            };
            let start = keys.partition_point(|&k| k < lo);
            for i in start..keys.len() {
                if keys[i] > hi {
                    return out;
                }
                out.push((keys[i], refs[i]));
            }
            match next {
                Some(n) => {
                    leaf = *n;
                    self.charge(dev, leaf);
                }
                None => return out,
            }
        }
    }

    /// Insert `(key, tref)`. Splits full nodes on the way back up;
    /// grows a new root when the old root splits. Charges a descent
    /// plus one write per dirtied node.
    pub fn insert(&mut self, key: u64, tref: TupleRef, dev: Option<&PageDevice>) {
        if self.config.duplicates == DuplicateMode::FirstRef && self.search(key, None).is_some() {
            return;
        }
        if let Some(d) = dev {
            // Descent cost; writes charged in the recursion.
            let _ = d;
        }
        if let Some((sep, right)) = self.insert_rec(self.root, key, tref, dev) {
            let old_root = self.root;
            let id = self.nodes.len() as NodeId;
            self.nodes.push(Node::Internal {
                keys: vec![sep],
                children: vec![old_root, right],
            });
            self.root = id;
            self.height += 1;
            if let Some(d) = dev {
                d.write(id as u64);
            }
        }
        self.n_entries += 1;
    }

    /// Returns `Some((separator, new_right_id))` if `node` split.
    fn insert_rec(
        &mut self,
        node: NodeId,
        key: u64,
        tref: TupleRef,
        dev: Option<&PageDevice>,
    ) -> Option<(u64, NodeId)> {
        self.charge(dev, node);
        match &mut self.nodes[node as usize] {
            Node::Leaf { keys, refs, .. } => {
                let at = keys.partition_point(|&k| k <= key);
                keys.insert(at, key);
                refs.insert(at, tref);
                if let Some(d) = dev {
                    d.write(node as u64);
                }
                if keys.len() > self.config.leaf_capacity() {
                    Some(self.split_leaf(node, dev))
                } else {
                    None
                }
            }
            Node::Internal { keys, children } => {
                let child_idx = keys.partition_point(|&k| k <= key);
                let child = children[child_idx];
                let split = self.insert_rec(child, key, tref, dev);
                if let Some((sep, right)) = split {
                    let Node::Internal { keys, children } = &mut self.nodes[node as usize] else {
                        unreachable!()
                    };
                    let at = keys.partition_point(|&k| k <= sep);
                    keys.insert(at, sep);
                    children.insert(at + 1, right);
                    if let Some(d) = dev {
                        d.write(node as u64);
                    }
                    if keys.len() + 1 > self.config.fanout() {
                        return Some(self.split_internal(node, dev));
                    }
                }
                None
            }
        }
    }

    fn split_leaf(&mut self, node: NodeId, dev: Option<&PageDevice>) -> (u64, NodeId) {
        let new_id = self.nodes.len() as NodeId;
        let Node::Leaf { keys, refs, next } = &mut self.nodes[node as usize] else {
            unreachable!()
        };
        let mid = keys.len() / 2;
        let right_keys = keys.split_off(mid);
        let right_refs = refs.split_off(mid);
        let right_next = *next;
        *next = Some(new_id);
        let sep = right_keys[0];
        self.nodes.push(Node::Leaf {
            keys: right_keys,
            refs: right_refs,
            next: right_next,
        });
        if let Some(d) = dev {
            d.write(new_id as u64);
        }
        (sep, new_id)
    }

    fn split_internal(&mut self, node: NodeId, dev: Option<&PageDevice>) -> (u64, NodeId) {
        let new_id = self.nodes.len() as NodeId;
        let Node::Internal { keys, children } = &mut self.nodes[node as usize] else {
            unreachable!()
        };
        let mid = keys.len() / 2;
        let sep = keys[mid];
        let right_keys = keys.split_off(mid + 1);
        keys.pop(); // `sep` moves up
        let right_children = children.split_off(mid + 1);
        self.nodes.push(Node::Internal {
            keys: right_keys,
            children: right_children,
        });
        if let Some(d) = dev {
            d.write(new_id as u64);
        }
        (sep, new_id)
    }

    /// Delete the first entry matching `(key, tref)`. Returns whether
    /// an entry was removed. Underfull nodes are left in place (no
    /// rebalancing), the common practice for read-mostly warehousing
    /// trees; the paper likewise never merges nodes.
    pub fn delete(&mut self, key: u64, tref: TupleRef, dev: Option<&PageDevice>) -> bool {
        let mut leaf = self.descend_leftmost(key, dev);
        loop {
            let Node::Leaf { keys, refs, next } = &mut self.nodes[leaf as usize] else {
                unreachable!()
            };
            let mut at = keys.partition_point(|&k| k < key);
            while at < keys.len() && keys[at] == key {
                if refs[at] == tref {
                    keys.remove(at);
                    refs.remove(at);
                    self.n_entries -= 1;
                    if let Some(d) = dev {
                        d.write(leaf as u64);
                    }
                    return true;
                }
                at += 1;
            }
            if at < keys.len() {
                return false; // moved past `key`
            }
            match next {
                Some(n) => leaf = *n,
                None => return false,
            }
        }
    }

    /// Exhaustively validate structural invariants; used by tests.
    ///
    /// Checks: leaf keys sorted; every leaf reachable through sibling
    /// links in global key order; internal separators route correctly;
    /// all leaves at the same depth.
    pub fn check_invariants(&self) {
        // Uniform leaf depth + separator sanity via recursion.
        fn walk(
            tree: &BPlusTree,
            node: NodeId,
            lo: Option<u64>,
            hi: Option<u64>,
            depth: usize,
            leaf_depth: &mut Option<usize>,
        ) {
            match &tree.nodes[node as usize] {
                Node::Leaf { keys, .. } => {
                    match leaf_depth {
                        Some(d) => assert_eq!(*d, depth, "leaves at different depths"),
                        None => *leaf_depth = Some(depth),
                    }
                    for w in keys.windows(2) {
                        assert!(w[0] <= w[1], "leaf keys unsorted");
                    }
                    if let Some(lo) = lo {
                        assert!(keys.iter().all(|&k| k >= lo), "leaf key below bound");
                    }
                    if let Some(hi) = hi {
                        // `<= hi` rather than `< hi`: a duplicate run
                        // spanning leaves makes the separator equal to
                        // the left leaf's max key.
                        assert!(keys.iter().all(|&k| k <= hi), "leaf key above bound");
                    }
                }
                Node::Internal { keys, children } => {
                    assert_eq!(children.len(), keys.len() + 1, "child/key count");
                    for w in keys.windows(2) {
                        assert!(w[0] <= w[1], "internal separators unsorted");
                    }
                    for (i, &child) in children.iter().enumerate() {
                        let clo = if i == 0 { lo } else { Some(keys[i - 1]) };
                        let chi = if i == keys.len() { hi } else { Some(keys[i]) };
                        walk(tree, child, clo, chi, depth + 1, leaf_depth);
                    }
                }
            }
        }
        let mut leaf_depth = None;
        walk(self, self.root, None, None, 1, &mut leaf_depth);
        assert_eq!(leaf_depth.expect("at least one leaf"), self.height);

        // Sibling chain covers all entries in sorted order.
        let mut count = 0u64;
        let mut prev: Option<u64> = None;
        let mut leaf = Some(self.first_leaf);
        while let Some(id) = leaf {
            let Node::Leaf { keys, next, .. } = &self.nodes[id as usize] else {
                panic!("sibling chain hit internal node");
            };
            for &k in keys {
                if let Some(p) = prev {
                    assert!(k >= p, "sibling chain unsorted");
                }
                prev = Some(k);
                count += 1;
            }
            leaf = *next;
        }
        assert_eq!(count, self.n_entries, "sibling chain misses entries");
    }
}

/// Amortized floor search over a key stream with locality (e.g. a
/// sorted probe batch).
///
/// [`BPlusTree::search_le`] pays a full root-to-leaf descent per key.
/// A batch of sorted keys resolves overwhelmingly to runs of the same
/// floor entry, so the cursor caches the last result together with
/// (a) the key interval `[lo, hi)` it stays valid for — `hi` is the
/// smallest stored key greater than the query — and (b) the exact node
/// path the resolving descent(s) charged. A hit skips the CPU of the
/// re-descent but **charges the identical index reads** a fresh
/// `search_le` would: separators are always stored entry keys, so two
/// keys with the same floor entry take branch-for-branch the same path
/// down the tree, and replaying the recorded path is
/// indistinguishable — read for read — from re-descending (pinned by
/// `floor_cursor_matches_search_le_result_and_charges`). The
/// `bfbench` ladder drives it to time the BF-Tree's upper-structure
/// descent over a sorted key stream.
///
/// The cursor borrows the tree, so the cache can never go stale
/// mid-stream: any mutation requires `&mut BPlusTree`, which ends the
/// borrow. The read-for-read charge equivalence additionally assumes
/// every internal separator is a stored key — true for bulk-built
/// trees and through inserts (separators are promoted stored keys),
/// and for the BF-Tree upper structure this cursor serves, but
/// [`BPlusTree::delete`] can orphan a separator, after which a cached
/// path may replay the two-descent fallback for keys a fresh
/// `search_le` would resolve in one. Results stay correct either way;
/// only the charge identity is scoped to delete-free trees.
#[derive(Debug)]
pub struct FloorCursor<'t> {
    tree: &'t BPlusTree,
    valid: bool,
    floor: Option<(u64, TupleRef)>,
    /// Cached-floor key (0 when the cached floor is `None`).
    lo: u64,
    /// First stored key past the cached interval (`None` = unbounded).
    hi: Option<u64>,
    /// Node ids the resolving descent(s) charged, replayed on hits.
    path: Vec<NodeId>,
    hits: u64,
    misses: u64,
}

impl FloorCursor<'_> {
    /// [`BPlusTree::search_le`], amortized. Identical result and
    /// identical index-read charging for any key sequence.
    pub fn search_le(&mut self, key: u64, dev: Option<&PageDevice>) -> Option<(u64, TupleRef)> {
        if self.valid && key >= self.lo && self.hi.is_none_or(|h| key < h) {
            self.hits += 1;
            if let Some(d) = dev {
                for &node in &self.path {
                    d.read_random(node as u64);
                }
            }
            return self.floor;
        }
        self.misses += 1;
        self.resolve(key, dev)
    }

    /// Cache hits served since construction (introspection/tests).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Full descents performed since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn cache(&mut self, lo: u64, hi: Option<u64>, floor: Option<(u64, TupleRef)>) {
        self.valid = true;
        self.lo = lo;
        self.hi = hi;
        self.floor = floor;
    }

    /// Full [`BPlusTree::search_le`] replica that records the charged
    /// path and the validity interval.
    fn resolve(&mut self, key: u64, dev: Option<&PageDevice>) -> Option<(u64, TupleRef)> {
        let tree = self.tree;
        self.valid = false;
        self.path.clear();
        let leaf = tree.descend_capture(key, dev, &mut self.path);
        let Node::Leaf { keys, refs, .. } = &tree.nodes[leaf as usize] else {
            unreachable!("descend returns leaves")
        };
        let at = keys.partition_point(|&k| k <= key);
        let hi = tree.next_key_from(leaf, at);
        if at > 0 {
            let floor = Some((keys[at - 1], refs[at - 1]));
            self.cache(keys[at - 1], hi, floor);
            return floor;
        }
        if leaf == tree.first_leaf {
            self.cache(0, hi, None);
            return None;
        }
        // The floor, if any, lies left of this leaf: redo one descent
        // biased left of its min, mirroring `search_le`'s fallback
        // (the second descent's charges are recorded too). The rare
        // delete-emptied-leaf and min-is-zero corners return uncached,
        // exactly as `search_le` resolves them per key.
        let min = keys.first().copied()?;
        let prev = min.checked_sub(1)?;
        let leaf = tree.descend_capture(prev, dev, &mut self.path);
        let Node::Leaf { keys, refs, .. } = &tree.nodes[leaf as usize] else {
            unreachable!()
        };
        let at = keys.partition_point(|&k| k <= key);
        let floor = (at > 0).then(|| (keys[at - 1], refs[at - 1]));
        if let Some((fk, _)) = floor {
            self.cache(fk, hi, floor);
        }
        floor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs(n: u64) -> impl Iterator<Item = (u64, TupleRef)> {
        (0..n).map(|k| (k, TupleRef::new(k / 16, (k % 16) as usize)))
    }

    fn small_config() -> BTreeConfig {
        // Tiny pages force multi-level trees in unit tests.
        BTreeConfig {
            page_size: 64, // fanout 4
            ..BTreeConfig::paper_default()
        }
    }

    #[test]
    fn bulk_build_and_search() {
        let t = BPlusTree::bulk_build(small_config(), refs(1000));
        t.check_invariants();
        for k in 0..1000 {
            let r = t.search(k, None).unwrap_or_else(|| panic!("missing {k}"));
            assert_eq!(r.pid(), k / 16);
        }
        assert!(t.search(1000, None).is_none());
        assert!(t.height() > 2);
    }

    #[test]
    fn bulk_build_empty() {
        let t = BPlusTree::bulk_build(small_config(), std::iter::empty());
        t.check_invariants();
        assert_eq!(t.height(), 1);
        assert!(t.search(5, None).is_none());
        assert_eq!(t.range(0, 100, None), vec![]);
    }

    #[test]
    #[should_panic(expected = "must be sorted")]
    fn bulk_build_rejects_unsorted() {
        let _ = BPlusTree::bulk_build(
            small_config(),
            vec![(5u64, TupleRef::new(0, 0)), (3u64, TupleRef::new(0, 1))],
        );
    }

    #[test]
    fn firstref_mode_dedups() {
        let config = BTreeConfig {
            duplicates: DuplicateMode::FirstRef,
            ..small_config()
        };
        let entries = (0..300u64).map(|i| (i / 3, TupleRef::new(i / 16, (i % 16) as usize)));
        let t = BPlusTree::bulk_build(config, entries);
        t.check_invariants();
        assert_eq!(t.n_entries(), 100);
        // First ref of key 10 is tuple 30 -> page 1, slot 14.
        let r = t.search(10, None).expect("dup key present");
        assert_eq!((r.pid(), r.slot()), (1, 14));
    }

    #[test]
    fn floor_cursor_matches_search_le_result_and_charges() {
        use bftree_storage::DeviceKind;
        // Sparse keys (multiples of 7) force floor results between
        // stored keys; tiny pages force a multi-level tree; an insert
        // pass exercises split-produced separators too.
        let mut t = BPlusTree::bulk_build(
            small_config(),
            (0..2_000u64).map(|k| (k * 7, TupleRef::new(k, 0))),
        );
        let mut state = 0xF00Du64;
        for _ in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            t.insert(state % 15_000, TupleRef::new(state % (1 << 20), 1), None);
        }
        t.check_invariants();

        // Ascending stream (the batch case, cache hits expected) and a
        // decorrelated stream (cache rarely valid): in both, result and
        // charged reads/ns must equal a fresh search_le per key.
        let ascending: Vec<u64> = (0..15_000u64).collect();
        let scattered: Vec<u64> = (0..1_000u64)
            .map(|i| i.wrapping_mul(2654435761) % 16_000)
            .collect();
        for stream in [&ascending, &scattered] {
            let dev_cursor = PageDevice::cold(DeviceKind::Ssd);
            let dev_scalar = PageDevice::cold(DeviceKind::Ssd);
            let mut cursor = t.floor_cursor();
            for &key in stream.iter() {
                let got = cursor.search_le(key, Some(&dev_cursor));
                let expect = t.search_le(key, Some(&dev_scalar));
                assert_eq!(got, expect, "floor({key}) diverged");
            }
            let (c, s) = (dev_cursor.snapshot(), dev_scalar.snapshot());
            assert_eq!(c.random_reads, s.random_reads, "charge count diverged");
            assert_eq!(c.sim_ns, s.sim_ns, "charge time diverged");
        }

        // The ascending stream must actually amortize.
        let mut cursor = t.floor_cursor();
        for &key in &ascending {
            cursor.search_le(key, None);
        }
        assert!(
            cursor.hits() > cursor.misses(),
            "sorted stream should mostly hit: {} hits / {} misses",
            cursor.hits(),
            cursor.misses()
        );
    }

    /// `search_le_path` routes like `search_le`, and charging its path
    /// costs what `search_le` charged.
    #[test]
    fn search_le_path_records_what_search_le_charges() {
        use bftree_storage::DeviceKind;
        let mut t = BPlusTree::bulk_build(
            small_config(),
            (0..2_000u64).map(|k| (k * 7, TupleRef::new(k, 0))),
        );
        let mut state = 0x5EEDu64;
        for _ in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            t.insert(state % 15_000, TupleRef::new(state % (1 << 20), 1), None);
        }
        let (charged, replayed) = (
            PageDevice::cold(DeviceKind::Ssd),
            PageDevice::cold(DeviceKind::Ssd),
        );
        let mut path = Vec::new();
        for key in (0..16_000u64).step_by(3) {
            path.clear();
            let expect = t.search_le(key, Some(&charged));
            assert_eq!(t.search_le_path(key, &mut path), expect, "floor({key})");
            for &node in &path {
                replayed.read_random(node);
            }
            assert_eq!(charged.snapshot(), replayed.snapshot(), "floor({key})");
        }
    }

    #[test]
    fn floor_cursor_handles_edges() {
        let t = BPlusTree::bulk_build(
            small_config(),
            (10..20u64).map(|k| (k * 10, TupleRef::new(k, 0))),
        );
        let mut cursor = t.floor_cursor();
        // Below every key: no floor, repeatedly (cached None).
        assert_eq!(cursor.search_le(0, None), None);
        assert_eq!(cursor.search_le(99, None), None);
        // At and past the max key: floor is the max entry, unbounded.
        assert_eq!(cursor.search_le(190, None), t.search_le(190, None));
        assert_eq!(
            cursor.search_le(u64::MAX, None),
            t.search_le(u64::MAX, None)
        );
        // Empty tree.
        let t = BPlusTree::new(small_config());
        let mut cursor = t.floor_cursor();
        assert_eq!(cursor.search_le(5, None), None);
    }

    #[test]
    fn search_all_crosses_leaf_boundaries() {
        // 50 copies of each key, leaf capacity 4 -> duplicates span leaves.
        let mut entries = Vec::new();
        for k in 0u64..10 {
            for c in 0..50u64 {
                entries.push((k, TupleRef::new(k, c as usize)));
            }
        }
        let t = BPlusTree::bulk_build(small_config(), entries);
        t.check_invariants();
        for k in 0u64..10 {
            let all = t.search_all(k, None);
            assert_eq!(all.len(), 50, "key {k}");
            assert!(all.iter().all(|r| r.pid() == k));
        }
    }

    #[test]
    fn seek_ge_finds_the_range_start_without_the_full_walk() {
        use bftree_storage::DeviceKind;
        let t = BPlusTree::bulk_build(
            small_config(),
            (0..500u64).map(|k| (k * 3, TupleRef::new(k, 0))),
        );
        for (lo, hi) in [
            (0u64, 1_500u64),
            (7, 1_400),
            (299, 299),
            (1_498, 1_600),
            (1_600, 2_000),
        ] {
            assert_eq!(
                t.seek_ge(lo, hi, None),
                t.range(lo, hi, None).first().copied(),
                "range [{lo}, {hi}]"
            );
        }
        // A wide range charges the descent only, not the leaf walk.
        let (seek_dev, range_dev) = (
            PageDevice::cold(DeviceKind::Ssd),
            PageDevice::cold(DeviceKind::Ssd),
        );
        let _ = t.seek_ge(0, 1_500, Some(&seek_dev));
        let _ = t.range(0, 1_500, Some(&range_dev));
        assert_eq!(seek_dev.snapshot().device_reads() as usize, t.height());
        assert!(range_dev.snapshot().device_reads() > seek_dev.snapshot().device_reads());
    }

    #[test]
    fn range_scan_matches_reference() {
        let t = BPlusTree::bulk_build(small_config(), refs(500));
        let got = t.range(100, 200, None);
        assert_eq!(got.len(), 101);
        assert_eq!(got.first().map(|e| e.0), Some(100));
        assert_eq!(got.last().map(|e| e.0), Some(200));
        assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
        // Degenerate and empty ranges.
        assert_eq!(t.range(250, 250, None).len(), 1);
        assert_eq!(t.range(600, 700, None).len(), 0);
    }

    #[test]
    fn inserts_into_empty_tree() {
        let mut t = BPlusTree::new(small_config());
        // Insert shuffled keys.
        let mut keys: Vec<u64> = (0..500).collect();
        let mut state = 42u64;
        for i in (1..keys.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            keys.swap(i, (state >> 33) as usize % (i + 1));
        }
        for &k in &keys {
            t.insert(k, TupleRef::new(k, 0), None);
        }
        t.check_invariants();
        for k in 0..500 {
            assert!(t.search(k, None).is_some(), "missing {k}");
        }
        assert_eq!(t.n_entries(), 500);
    }

    #[test]
    fn mixed_bulk_then_inserts() {
        let mut t = BPlusTree::bulk_build(
            small_config(),
            (0..100u64).map(|k| (k * 2, TupleRef::new(k, 0))),
        );
        for k in 0..100u64 {
            t.insert(k * 2 + 1, TupleRef::new(k, 1), None);
        }
        t.check_invariants();
        for k in 0..200u64 {
            assert!(t.search(k, None).is_some(), "missing {k}");
        }
    }

    #[test]
    fn delete_removes_exactly_one_entry() {
        let mut t = BPlusTree::bulk_build(small_config(), refs(100));
        assert!(t.delete(50, TupleRef::new(50 / 16, (50 % 16) as usize), None));
        assert!(t.search(50, None).is_none());
        assert!(!t.delete(50, TupleRef::new(3, 2), None));
        t.check_invariants();
        assert_eq!(t.n_entries(), 99);
    }

    #[test]
    fn delete_specific_duplicate() {
        let entries = vec![
            (7u64, TupleRef::new(0, 0)),
            (7u64, TupleRef::new(0, 1)),
            (7u64, TupleRef::new(0, 2)),
        ];
        let mut t = BPlusTree::bulk_build(small_config(), entries);
        assert!(t.delete(7, TupleRef::new(0, 1), None));
        let left = t.search_all(7, None);
        assert_eq!(left, vec![TupleRef::new(0, 0), TupleRef::new(0, 2)]);
    }

    #[test]
    fn device_charging_counts_height_reads() {
        use bftree_storage::{DeviceKind, PageDevice};
        let t = BPlusTree::bulk_build(BTreeConfig::paper_default(), refs(100_000));
        let dev = PageDevice::cold(DeviceKind::Ssd);
        t.search(12345, Some(&dev));
        assert_eq!(dev.snapshot().random_reads as usize, t.height());
    }

    #[test]
    fn paper_scale_pk_leaf_count() {
        // 4M entries at 256/leaf -> 15625 leaves, height 3 (paper §6.2:
        // "the B+-Tree ... has height equal to 3").
        let t = BPlusTree::bulk_build(BTreeConfig::paper_default(), refs(4_000_000));
        assert_eq!(t.leaf_pages(), 15_625);
        assert_eq!(t.height(), 3);
        t.check_invariants();
    }

    #[test]
    fn fill_factor_inflates_leaf_count() {
        let cfg = BTreeConfig {
            fill_factor: 0.81,
            ..BTreeConfig::paper_default()
        };
        let packed = BPlusTree::bulk_build(BTreeConfig::paper_default(), refs(100_000));
        let loose = BPlusTree::bulk_build(cfg, refs(100_000));
        assert!(loose.leaf_pages() > packed.leaf_pages());
        loose.check_invariants();
    }
}
