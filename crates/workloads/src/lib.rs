//! # Workload generators for the BF-Tree reproduction
//!
//! Deterministic, seeded generators for the three datasets the paper
//! evaluates on (§6.1) and their query workloads:
//!
//! * [`synthetic`] — relation R: 1 GB of 256 B tuples with a unique
//!   ordered PK and an ATT1 attribute of average cardinality 11.
//! * [`tpch`] — TPCH lineitem date columns with dbgen's semantics
//!   (shipdate/commitdate/receiptdate; ~2 400 rows per distinct
//!   shipdate at SF 1), exhibiting Figure 1(a)'s implicit clustering.
//! * [`shd`] — the Smart Home Dataset stand-in: timestamp-ordered
//!   meter readings with the §6.5 cardinality distribution (mean 52,
//!   range 21–8295, 99.7 % ≤ 126) and per-client monotone aggregate
//!   energy.
//! * [`queries`] — probe sets drawn from the domain (§6.2) and
//!   range-scan workloads (Figure 13).
//! * [`popularity`] — skewed key-popularity models (Zipfian via
//!   rejection-inversion, YCSB-style hotspot) for the concurrent
//!   serving experiments.
//! * [`mixed`] — YCSB-A/B/C-style mixed read/insert op streams, split
//!   into decorrelated per-thread streams for the parallel driver.
//!
//! Everything is reproducible from a seed: the paper's requirement
//! that "the same set of search keys is used in each different
//! configuration" extends here to whole datasets.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod mixed;
pub mod popularity;
pub mod queries;
pub mod shd;
pub mod synthetic;
pub mod tpch;

pub use mixed::{mixed_stream, mixed_streams, Op, OpMix};
pub use popularity::{popular_probe_streams, KeyPopularity, KeySampler, Zipfian};
pub use queries::{probes_from_domain, range_queries, RangeQuery};
pub use shd::ShdConfig;
pub use synthetic::{build_relation_r, SyntheticConfig};
pub use tpch::TpchConfig;
