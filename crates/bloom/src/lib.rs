//! Bloom filter substrate for the BF-Tree reproduction.
//!
//! This crate implements, from scratch, everything the BF-Tree paper
//! (Athanassoulis & Ailamaki, VLDB 2014) needs from the Bloom-filter
//! literature:
//!
//! * [`BloomFilter`] — the classic Bloom filter of Bloom \[8\], with
//!   double hashing (Kirsch–Mitzenmacher) over two independent 64-bit
//!   hash functions implemented in [`hash`].
//! * [`math`] — the sizing identities of the paper's Section 3
//!   (Equation 1) and Section 7 (Equation 14, fpp under inserts).
//! * [`BloomGroup`] — Property 1 of Section 3: a bit budget divided
//!   into `S` equal filters preserves the false-positive probability.
//!   This is the building block of a BF-leaf.
//! * [`BlockedBloomFilter`] and [`FilterLayout`] — cache-line-blocked
//!   probing (Putze et al.): the first hash picks one 512-bit block
//!   and the remaining probes stay inside it, trading a little
//!   accuracy ([`math::blocked_fpp`]) for one cache miss per test.
//! * [`CountingBloomFilter`] and [`DeletableBloomFilter`] — the
//!   delete-capable variants the paper's Section 7 points at (\[7\], \[39\]).
//!
//! All filters are deterministic: the same seed and the same inserts
//! produce bit-identical filters, which the storage layer relies on
//! when persisting BF-leaves.

#![warn(missing_docs)]

pub mod blocked;
pub mod counting;
pub mod deletable;
pub mod filter;
pub mod group;
pub mod hash;
pub mod math;

pub use blocked::{BlockedBloomFilter, FilterLayout, BLOCK_BITS};
pub use counting::CountingBloomFilter;
pub use deletable::DeletableBloomFilter;
pub use filter::BloomFilter;
pub use group::BloomGroup;
