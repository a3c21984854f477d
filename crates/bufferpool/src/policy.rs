//! Eviction policies: the replacement discipline of one
//! [`BufferManager`](crate::BufferManager) shard.
//!
//! A policy only orders *slots* (small dense integers handed out by the
//! shard); residency and byte accounting stay in the shard. Three
//! classic disciplines are provided:
//!
//! * [`Lru`] — strict least-recently-used, the discipline of the
//!   §6.2 warm-cache devices.
//! * [`Clock`] — second-chance FIFO: a reference bit per slot buys each
//!   re-referenced page one extra trip around the ring.
//! * [`TwoQ`] — the *simplified* 2Q of Johnson & Shasha (VLDB '94): a
//!   probationary FIFO absorbs single-touch pages (scans), a protected
//!   LRU keeps re-referenced ones. Eviction drains the probationary
//!   queue while it holds more than [`TwoQ::KIN_PERCENT`] of resident
//!   slots, else the protected LRU tail.
//!
//! All three are fully deterministic: a fixed access sequence produces
//! a fixed eviction order, which the golden tests pin exactly.
//!
//! Every benchmark workload runs [`Lru`]; [`Clock`] and [`TwoQ`] are
//! driven by `tests/buffer_manager.rs` only, until `bfbench` takes the
//! policy as a parameter (ROADMAP item 1(b)).

/// The replacement discipline of one shard.
///
/// Contract: the shard calls [`on_admit`](EvictionPolicy::on_admit)
/// when a page enters a slot, [`on_hit`](EvictionPolicy::on_hit) when
/// a resident slot is referenced again, and
/// [`on_remove`](EvictionPolicy::on_remove) when the shard itself
/// removes a slot (invalidation, per-pool eviction).
/// [`victim`](EvictionPolicy::victim) both *chooses* the next victim
/// and removes it from the policy's own bookkeeping — the shard then
/// frees the frame.
pub trait EvictionPolicy: std::fmt::Debug + Send {
    /// Human-readable policy name for reports.
    fn name(&self) -> &'static str;

    /// A page was admitted into `slot`.
    fn on_admit(&mut self, slot: usize);

    /// The resident page in `slot` was referenced again.
    fn on_hit(&mut self, slot: usize);

    /// The page in `slot` was removed by the shard (not via
    /// [`EvictionPolicy::victim`]).
    fn on_remove(&mut self, slot: usize);

    /// Choose and dequeue the next victim; `None` when no slot is
    /// resident.
    fn victim(&mut self) -> Option<usize>;
}

/// Which [`EvictionPolicy`] a [`BufferManager`](crate::BufferManager)
/// runs; `tests/buffer_manager.rs` holds each one to a golden
/// eviction order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Strict least-recently-used.
    Lru,
    /// Second-chance FIFO (clock).
    Clock,
    /// Simplified 2Q (probationary FIFO + protected LRU).
    TwoQ,
}

impl PolicyKind {
    /// All policies in presentation order.
    pub const ALL: [PolicyKind; 3] = [PolicyKind::Lru, PolicyKind::Clock, PolicyKind::TwoQ];

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Clock => "clock",
            PolicyKind::TwoQ => "2q",
        }
    }

    /// Instantiate a fresh policy of this kind.
    pub fn build(self) -> Box<dyn EvictionPolicy> {
        match self {
            PolicyKind::Lru => Box::new(Lru::new()),
            PolicyKind::Clock => Box::new(Clock::new()),
            PolicyKind::TwoQ => Box::new(TwoQ::new()),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

const NIL: usize = usize::MAX;

/// One slot's links in a [`RecencyList`]: everything an unlink or a
/// relink reads about the slot sits in one record.
#[derive(Debug, Clone, Copy)]
struct Links {
    prev: usize,
    next: usize,
    linked: bool,
}

impl Links {
    const UNLINKED: Links = Links {
        prev: NIL,
        next: NIL,
        linked: false,
    };
}

/// An intrusive doubly-linked list over slot ids — the one queue of
/// all three policies: [`Lru`]'s recency order and [`TwoQ`]'s
/// protected queue, and, used as a FIFO (`push_front`, `pop_lru`,
/// never `touch`), [`Clock`]'s ring and [`TwoQ`]'s probationary
/// queue. Slot-indexed (slots are dense), O(1) link/unlink, no per-op
/// allocation.
#[derive(Debug)]
struct RecencyList {
    links: Vec<Links>,
    head: usize, // MRU
    tail: usize, // LRU
    len: usize,
}

impl RecencyList {
    fn new() -> Self {
        Self {
            links: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    fn contains(&self, slot: usize) -> bool {
        self.links.get(slot).is_some_and(|l| l.linked)
    }

    fn push_front(&mut self, slot: usize) {
        if slot >= self.links.len() {
            self.links.resize(slot + 1, Links::UNLINKED);
        }
        debug_assert!(!self.links[slot].linked);
        self.links[slot] = Links {
            prev: NIL,
            next: self.head,
            linked: true,
        };
        if self.head != NIL {
            self.links[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
        self.len += 1;
    }

    fn unlink(&mut self, slot: usize) {
        debug_assert!(self.contains(slot));
        let Links { prev, next, .. } = std::mem::replace(&mut self.links[slot], Links::UNLINKED);
        if prev != NIL {
            self.links[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.links[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.len -= 1;
    }

    /// Move `slot` to the MRU end (already there: nothing to do).
    fn touch(&mut self, slot: usize) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    /// The least-recent slot, unlinked.
    fn pop_lru(&mut self) -> Option<usize> {
        let s = self.tail;
        if s == NIL {
            return None;
        }
        self.unlink(s);
        Some(s)
    }
}

/// Strict least-recently-used replacement.
#[derive(Debug)]
pub struct Lru {
    list: RecencyList,
}

impl Lru {
    /// A fresh, empty LRU order.
    pub fn new() -> Self {
        Self {
            list: RecencyList::new(),
        }
    }
}

impl Default for Lru {
    fn default() -> Self {
        Self::new()
    }
}

impl EvictionPolicy for Lru {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn on_admit(&mut self, slot: usize) {
        self.list.push_front(slot);
    }

    fn on_hit(&mut self, slot: usize) {
        self.list.touch(slot);
    }

    fn on_remove(&mut self, slot: usize) {
        self.list.unlink(slot);
    }

    fn victim(&mut self) -> Option<usize> {
        self.list.pop_lru()
    }
}

/// Second-chance FIFO ("clock"): pages queue in admission order; a hit
/// sets the slot's reference bit, which buys the page one requeue when
/// the hand reaches it.
#[derive(Debug)]
pub struct Clock {
    /// Admission order, a FIFO: the front is the newest slot, the hand
    /// takes the LRU end.
    ring: RecencyList,
    referenced: Vec<bool>,
}

impl Clock {
    /// A fresh, empty clock ring.
    pub fn new() -> Self {
        Self {
            ring: RecencyList::new(),
            referenced: Vec::new(),
        }
    }

    fn ensure(&mut self, slot: usize) {
        if slot >= self.referenced.len() {
            self.referenced.resize(slot + 1, false);
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

impl EvictionPolicy for Clock {
    fn name(&self) -> &'static str {
        "clock"
    }

    fn on_admit(&mut self, slot: usize) {
        self.ensure(slot);
        self.referenced[slot] = false;
        self.ring.push_front(slot);
    }

    fn on_hit(&mut self, slot: usize) {
        self.ensure(slot);
        self.referenced[slot] = true;
    }

    fn on_remove(&mut self, slot: usize) {
        self.ring.unlink(slot);
    }

    fn victim(&mut self) -> Option<usize> {
        // A referenced slot spends its bit and requeues; one lap
        // clears every bit, so the hand stops within it.
        loop {
            let slot = self.ring.pop_lru()?;
            if self.referenced[slot] {
                self.referenced[slot] = false;
                self.ring.push_front(slot);
            } else {
                return Some(slot);
            }
        }
    }
}

/// Simplified 2Q: first-touch pages enter a probationary FIFO; a
/// second touch promotes to a protected LRU. Eviction drains the
/// probationary queue while it holds more than
/// [`TwoQ::KIN_PERCENT`] % of resident slots (or the protected queue
/// is empty), else the protected LRU tail — so one sequential scan
/// cannot flush the hot set.
#[derive(Debug)]
pub struct TwoQ {
    /// First-touch slots, a FIFO: the front is the newest, eviction
    /// takes the LRU end.
    probation: RecencyList,
    protected: RecencyList,
}

impl TwoQ {
    /// Probationary share of resident slots above which eviction
    /// prefers the probationary queue (the 2Q paper's `Kin`, as a
    /// percentage).
    pub const KIN_PERCENT: usize = 25;

    /// A fresh, empty 2Q state.
    pub fn new() -> Self {
        Self {
            probation: RecencyList::new(),
            protected: RecencyList::new(),
        }
    }

    fn resident(&self) -> usize {
        self.probation.len + self.protected.len
    }
}

impl Default for TwoQ {
    fn default() -> Self {
        Self::new()
    }
}

impl EvictionPolicy for TwoQ {
    fn name(&self) -> &'static str {
        "2q"
    }

    fn on_admit(&mut self, slot: usize) {
        self.probation.push_front(slot);
    }

    fn on_hit(&mut self, slot: usize) {
        if self.probation.contains(slot) {
            self.probation.unlink(slot);
            self.protected.push_front(slot);
        } else {
            self.protected.touch(slot);
        }
    }

    fn on_remove(&mut self, slot: usize) {
        if self.probation.contains(slot) {
            self.probation.unlink(slot);
        } else {
            self.protected.unlink(slot);
        }
    }

    fn victim(&mut self) -> Option<usize> {
        let over_kin = self.probation.len * 100 > self.resident() * Self::KIN_PERCENT;
        if over_kin || self.protected.len == 0 {
            return self.probation.pop_lru();
        }
        self.protected.pop_lru()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_victim_is_least_recent() {
        let mut p = Lru::new();
        p.on_admit(0);
        p.on_admit(1);
        p.on_admit(2);
        p.on_hit(0); // order (MRU..LRU): 0 2 1
        assert_eq!(p.victim(), Some(1));
        assert_eq!(p.victim(), Some(2));
        assert_eq!(p.victim(), Some(0));
        assert_eq!(p.victim(), None);
    }

    #[test]
    fn clock_gives_referenced_slots_a_second_chance() {
        let mut p = Clock::new();
        p.on_admit(0);
        p.on_admit(1);
        p.on_admit(2);
        p.on_hit(0);
        // Hand: 0 is referenced -> cleared + requeued; 1 is the victim.
        assert_eq!(p.victim(), Some(1));
        // Ring now 2, 0 (both unreferenced).
        assert_eq!(p.victim(), Some(2));
        assert_eq!(p.victim(), Some(0));
        assert_eq!(p.victim(), None);
    }

    #[test]
    fn twoq_promotes_on_second_touch_and_drains_probation_first() {
        let mut p = TwoQ::new();
        for s in 0..4 {
            p.on_admit(s);
        }
        p.on_hit(0); // 0 promoted to protected
                     // Probation 1,2,3 (75% of 4 resident > 25%): FIFO order.
        assert_eq!(p.victim(), Some(1));
        assert_eq!(p.victim(), Some(2));
        // 1 probationary of 2 resident (50%) still over Kin.
        assert_eq!(p.victim(), Some(3));
        // Only protected remains.
        assert_eq!(p.victim(), Some(0));
        assert_eq!(p.victim(), None);
    }

    #[test]
    fn twoq_protects_hot_set_from_scan() {
        let mut p = TwoQ::new();
        p.on_admit(0);
        p.on_hit(0); // hot, protected
        for s in 1..=8 {
            p.on_admit(s); // a scan of single-touch pages
        }
        for expect in 1..=8 {
            assert_eq!(p.victim(), Some(expect), "scan pages go first");
        }
        assert_eq!(p.victim(), Some(0), "hot page outlives the scan");
    }

    #[test]
    fn policies_survive_explicit_removal() {
        for kind in PolicyKind::ALL {
            let mut p = kind.build();
            p.on_admit(0);
            p.on_admit(1);
            p.on_admit(2);
            p.on_hit(1);
            p.on_remove(1);
            p.on_remove(0);
            assert_eq!(p.victim(), Some(2), "{}", kind);
            assert_eq!(p.victim(), None, "{}", kind);
        }
    }

    #[test]
    fn kind_labels_and_builders_agree() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.build().name(), kind.label());
            assert_eq!(kind.to_string(), kind.label());
        }
    }
}
