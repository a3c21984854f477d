//! In-memory hash index — the paper's third baseline.
//!
//! The paper compares against "an in-memory hash index" whose probes
//! behave like the memory-resident B+-Tree (§6.2). This crate
//! implements a bucket-chained hash table from key to tuple
//! references, built from scratch on the same xxh64 hashing the Bloom
//! filters use. The index always resides in memory; only the *data*
//! page fetch it triggers is charged to a device.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod access;

use bftree_btree::TupleRef;

/// A bucket-chained hash index from u64 keys to tuple references.
#[derive(Debug, Clone)]
pub struct HashIndex {
    buckets: Vec<Vec<(u64, TupleRef)>>,
    mask: u64,
    n_entries: u64,
    seed: u64,
}

impl HashIndex {
    /// Create an index sized for roughly `expected` entries (load
    /// factor ≈ 1 entry per bucket).
    pub fn with_capacity(expected: u64, seed: u64) -> Self {
        let buckets = (expected.max(16)).next_power_of_two() as usize;
        Self {
            buckets: vec![Vec::new(); buckets],
            mask: buckets as u64 - 1,
            n_entries: 0,
            seed,
        }
    }

    /// Bulk-build from `(key, ref)` pairs (any order).
    pub fn build<I: IntoIterator<Item = (u64, TupleRef)>>(entries: I, seed: u64) -> Self {
        let entries: Vec<(u64, TupleRef)> = entries.into_iter().collect();
        let mut idx = Self::with_capacity(entries.len() as u64, seed);
        for (k, r) in entries {
            idx.insert(k, r);
        }
        idx
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        (bftree_bloom_hash(key, self.seed) & self.mask) as usize
    }

    /// Insert an entry (duplicates allowed).
    pub fn insert(&mut self, key: u64, tref: TupleRef) {
        let b = self.bucket_of(key);
        self.buckets[b].push((key, tref));
        self.n_entries += 1;
        // Grow at load factor 4 to keep chains short.
        if self.n_entries > self.buckets.len() as u64 * 4 {
            self.grow();
        }
    }

    fn grow(&mut self) {
        let new_size = self.buckets.len() * 2;
        let old = std::mem::replace(&mut self.buckets, vec![Vec::new(); new_size]);
        self.mask = new_size as u64 - 1;
        for bucket in old {
            for (k, r) in bucket {
                let b = self.bucket_of(k);
                self.buckets[b].push((k, r));
            }
        }
    }

    /// First matching entry for `key`, if any. The probe itself is
    /// in-memory; the caller fetches the data page.
    pub fn get(&self, key: u64) -> Option<TupleRef> {
        self.buckets[self.bucket_of(key)]
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, r)| *r)
    }

    /// All matching entries for `key`.
    pub fn get_all(&self, key: u64) -> Vec<TupleRef> {
        self.buckets[self.bucket_of(key)]
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|(_, r)| *r)
            .collect()
    }

    /// Remove one `(key, tref)` entry; returns whether one was removed.
    pub fn remove(&mut self, key: u64, tref: TupleRef) -> bool {
        let b = self.bucket_of(key);
        let bucket = &mut self.buckets[b];
        if let Some(pos) = bucket.iter().position(|(k, r)| *k == key && *r == tref) {
            bucket.swap_remove(pos);
            self.n_entries -= 1;
            true
        } else {
            false
        }
    }

    /// Number of entries.
    pub fn n_entries(&self) -> u64 {
        self.n_entries
    }

    /// The hash seed this index was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Memory footprint in bytes (buckets + entries), the quantity the
    /// paper's capacity comparisons use.
    pub fn size_bytes(&self) -> u64 {
        let entry = std::mem::size_of::<(u64, TupleRef)>() as u64;
        let bucket_hdr = std::mem::size_of::<Vec<(u64, TupleRef)>>() as u64;
        self.buckets.len() as u64 * bucket_hdr + self.n_entries * entry
    }
}

/// xxh64-style avalanche of a u64 key (splitmix64 finalizer) — enough
/// for a hash table with power-of-two buckets.
#[inline]
fn bftree_bloom_hash(key: u64, seed: u64) -> u64 {
    let mut z = key ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_get() {
        let idx = HashIndex::build((0u64..10_000).map(|k| (k, TupleRef::new(k / 16, 0))), 1);
        for k in 0..10_000 {
            assert_eq!(idx.get(k).map(|r| r.pid()), Some(k / 16));
        }
        assert!(idx.get(10_000).is_none());
    }

    #[test]
    fn duplicates_are_all_returned() {
        let mut idx = HashIndex::with_capacity(8, 0);
        for i in 0..5 {
            idx.insert(7, TupleRef::new(i, 0));
        }
        idx.insert(8, TupleRef::new(99, 0));
        let mut all = idx.get_all(7);
        all.sort();
        assert_eq!(all.len(), 5);
        assert!(all.iter().enumerate().all(|(i, r)| r.pid() == i as u64));
    }

    #[test]
    fn growth_preserves_entries() {
        let mut idx = HashIndex::with_capacity(4, 3);
        for k in 0u64..5_000 {
            idx.insert(k, TupleRef::new(k, 0));
        }
        assert_eq!(idx.n_entries(), 5_000);
        for k in 0u64..5_000 {
            assert!(idx.get(k).is_some(), "lost key {k}");
        }
    }

    #[test]
    fn remove_specific_entry() {
        let mut idx = HashIndex::with_capacity(8, 0);
        idx.insert(1, TupleRef::new(10, 0));
        idx.insert(1, TupleRef::new(11, 0));
        assert!(idx.remove(1, TupleRef::new(10, 0)));
        assert!(!idx.remove(1, TupleRef::new(10, 0)));
        assert_eq!(idx.get_all(1), vec![TupleRef::new(11, 0)]);
        assert_eq!(idx.n_entries(), 1);
    }

    #[test]
    fn chains_stay_short() {
        let idx = HashIndex::build((0u64..100_000).map(|k| (k, TupleRef::new(k, 0))), 9);
        let max_chain = idx.buckets.iter().map(Vec::len).max().unwrap_or(0);
        assert!(max_chain <= 32, "pathological chain of {max_chain}");
    }

    #[test]
    fn size_scales_with_entries() {
        let small = HashIndex::build((0u64..1_000).map(|k| (k, TupleRef::new(k, 0))), 0);
        let large = HashIndex::build((0u64..100_000).map(|k| (k, TupleRef::new(k, 0))), 0);
        assert!(large.size_bytes() > small.size_bytes() * 50);
    }
}
