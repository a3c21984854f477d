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
//!   into `S` filters preserves the false-positive probability. This
//!   is the building block of a BF-leaf; a key's `k` positions in a
//!   member of `m` bits are [`hash::KeyFingerprint::probe`]`(i, m)`.
//!
//! Drivers: every `figures <id>` and `bfbench` workload builds
//! BF-leaves over [`BloomGroup`]; `figures fig14_inserts` measures
//! Equation 14 on a [`BloomFilter`]. The delete-capable variants
//! Section 7 points at (counting \[7\], deletable \[39\]) are not here:
//! a delete marks its tuples dead in the heap, and a BF-leaf counts it
//! until a rebuild.
//!
//! All filters are deterministic: the same seed and the same inserts
//! produce bit-identical filters, which the storage layer relies on
//! when persisting BF-leaves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod filter;
pub mod group;
pub mod hash;
pub mod math;

pub use filter::BloomFilter;
pub use group::BloomGroup;
