//! Mixed read/insert/delete operation streams (YCSB-style mixes).
//!
//! An [`OpMix`] fixes the read and delete fractions; [`mixed_stream`]
//! interleaves probe, insert, and delete operations exactly at those
//! fractions (Bresenham spreading), drawing probe keys under a
//! [`KeyPopularity`] and insert/delete keys in order from
//! caller-provided lists. [`mixed_streams`] splits the work across
//! worker threads with decorrelated per-thread seeds and disjoint
//! insert/delete-key slices, so a multi-threaded run touches each
//! write key exactly once.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::popularity::{thread_seed, KeyPopularity, KeySampler};

/// One operation of a mixed workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point probe of the key.
    Probe(u64),
    /// Register the key (its tuple is pre-loaded in the heap; the
    /// op makes it visible to the index).
    Insert(u64),
    /// Remove every index entry for the key (later probes must miss).
    Delete(u64),
}

/// Read/insert/delete ratio of a mixed stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Fraction of operations that are probes, in [0, 1].
    pub read_fraction: f64,
    /// Fraction of **all** operations that are deletes, in
    /// [0, 1 − `read_fraction`]. The remaining write share is inserts.
    pub delete_fraction: f64,
}

impl OpMix {
    /// YCSB-A: 50 % reads, 50 % writes ("update heavy").
    pub const YCSB_A: OpMix = OpMix {
        read_fraction: 0.5,
        delete_fraction: 0.0,
    };
    /// YCSB-B: 95 % reads, 5 % writes ("read mostly").
    pub const YCSB_B: OpMix = OpMix {
        read_fraction: 0.95,
        delete_fraction: 0.0,
    };
    /// YCSB-C: 100 % reads (the paper's probe-only workloads).
    pub const YCSB_C: OpMix = OpMix {
        read_fraction: 1.0,
        delete_fraction: 0.0,
    };
    /// Write-heavy ingest: 50 % reads, 40 % inserts, 10 % deletes —
    /// the durable-write-path stress mix.
    pub const WRITE_HEAVY: OpMix = OpMix {
        read_fraction: 0.5,
        delete_fraction: 0.1,
    };

    /// Fraction of operations that are writes (inserts + deletes).
    pub fn write_fraction(&self) -> f64 {
        1.0 - self.read_fraction
    }
}

/// Generate `n_ops` operations: probes of `domain` keys drawn under
/// `popularity`, interleaved with inserts consuming `insert_keys` and
/// deletes consuming `delete_keys`, both in order. Exactly
/// `⌈n_ops · (1 − read_fraction)⌉` writes are scheduled, of which the
/// `delete_fraction / (1 − read_fraction)` share are deletes (fewer
/// if a key list runs out first — the tail becomes probes), all
/// evenly spread through the stream.
pub fn mixed_stream(
    domain: &[u64],
    popularity: KeyPopularity,
    mix: OpMix,
    insert_keys: &[u64],
    delete_keys: &[u64],
    n_ops: usize,
    seed: u64,
) -> Vec<Op> {
    assert!(
        (0.0..=1.0).contains(&mix.read_fraction),
        "read fraction out of [0, 1]"
    );
    assert!(
        mix.delete_fraction >= 0.0 && mix.read_fraction + mix.delete_fraction <= 1.0,
        "delete fraction out of [0, 1 - read_fraction]"
    );
    assert!(!domain.is_empty(), "empty probe domain");
    let sampler = KeySampler::new(domain.len(), popularity);
    let mut rng = StdRng::seed_from_u64(seed);
    let rf = mix.read_fraction;
    // Deletes as a share of the write slots (Bresenham within the
    // write sub-stream, so both kinds spread evenly).
    let df = if mix.write_fraction() > 0.0 {
        mix.delete_fraction / mix.write_fraction()
    } else {
        0.0
    };
    let mut next_insert = 0usize;
    let mut next_delete = 0usize;
    let mut writes = 0usize;
    (0..n_ops)
        .map(|i| {
            let want_read =
                (((i + 1) as f64) * rf).floor() > ((i as f64) * rf).floor() || rf >= 1.0;
            if want_read {
                return Op::Probe(domain[sampler.sample(&mut rng)]);
            }
            let w = writes;
            writes += 1;
            let want_delete = (((w + 1) as f64) * df).floor() > ((w as f64) * df).floor();
            if want_delete && next_delete < delete_keys.len() {
                let key = delete_keys[next_delete];
                next_delete += 1;
                Op::Delete(key)
            } else if !want_delete && next_insert < insert_keys.len() {
                let key = insert_keys[next_insert];
                next_insert += 1;
                Op::Insert(key)
            } else {
                Op::Probe(domain[sampler.sample(&mut rng)])
            }
        })
        .collect()
}

/// Per-thread mixed streams: `threads` streams of `ops_per_thread`
/// operations, each seeded from `(seed, thread)` and drawing inserts
/// and deletes from its own disjoint chunks of `insert_keys` and
/// `delete_keys`.
#[allow(clippy::too_many_arguments)]
pub fn mixed_streams(
    domain: &[u64],
    popularity: KeyPopularity,
    mix: OpMix,
    insert_keys: &[u64],
    delete_keys: &[u64],
    ops_per_thread: usize,
    threads: usize,
    seed: u64,
) -> Vec<Vec<Op>> {
    assert!(threads >= 1, "need at least one stream");
    let islice = disjoint_chunks(insert_keys, threads);
    let dslice = disjoint_chunks(delete_keys, threads);
    (0..threads)
        .map(|t| {
            mixed_stream(
                domain,
                popularity,
                mix,
                islice[t],
                dslice[t],
                ops_per_thread,
                thread_seed(seed, t),
            )
        })
        .collect()
}

/// Split `keys` into `threads` disjoint contiguous chunks (trailing
/// chunks may be empty).
fn disjoint_chunks(keys: &[u64], threads: usize) -> Vec<&[u64]> {
    let chunk = keys.len().div_ceil(threads).max(1);
    (0..threads)
        .map(|t| {
            keys.get(t * chunk..((t + 1) * chunk).min(keys.len()))
                .unwrap_or(&[])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> Vec<u64> {
        (0..1_000u64).collect()
    }

    fn count_inserts(ops: &[Op]) -> usize {
        ops.iter().filter(|o| matches!(o, Op::Insert(_))).count()
    }

    fn count_deletes(ops: &[Op]) -> usize {
        ops.iter().filter(|o| matches!(o, Op::Delete(_))).count()
    }

    #[test]
    fn mix_fraction_is_exact() {
        let d = domain();
        let inserts: Vec<u64> = (10_000..20_000u64).collect();
        for (mix, expect) in [
            (OpMix::YCSB_A, 500),
            (OpMix::YCSB_B, 50),
            (OpMix::YCSB_C, 0),
        ] {
            let ops = mixed_stream(&d, KeyPopularity::Uniform, mix, &inserts, &[], 1_000, 1);
            assert_eq!(ops.len(), 1_000);
            assert_eq!(count_inserts(&ops), expect, "mix {mix:?}");
            assert_eq!(count_deletes(&ops), 0, "mix {mix:?}");
        }
    }

    #[test]
    fn write_heavy_mix_schedules_deletes_among_the_writes() {
        let d = domain();
        let inserts: Vec<u64> = (10_000..20_000u64).collect();
        let deletes: Vec<u64> = (0..1_000u64).collect();
        let ops = mixed_stream(
            &d,
            KeyPopularity::Uniform,
            OpMix::WRITE_HEAVY,
            &inserts,
            &deletes,
            1_000,
            1,
        );
        assert_eq!(ops.len(), 1_000);
        assert_eq!(count_inserts(&ops), 400, "40% inserts");
        assert_eq!(count_deletes(&ops), 100, "10% deletes");
        // Deletes spread through the stream, not bunched at one end.
        let first_half_deletes = count_deletes(&ops[..500]);
        assert!(
            (30..=70).contains(&first_half_deletes),
            "deletes bunched: {first_half_deletes} of 100 in the first half"
        );
    }

    #[test]
    fn inserts_and_deletes_consume_keys_in_order_without_repeats() {
        let d = domain();
        let inserts: Vec<u64> = (10_000..10_100u64).collect();
        let deletes: Vec<u64> = (0..50u64).collect();
        let ops = mixed_stream(
            &d,
            KeyPopularity::Uniform,
            OpMix::WRITE_HEAVY,
            &inserts,
            &deletes,
            200,
            2,
        );
        let got_i: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Insert(k) => Some(*k),
                _ => None,
            })
            .collect();
        assert_eq!(got_i, inserts[..got_i.len()].to_vec());
        let got_d: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Delete(k) => Some(*k),
                _ => None,
            })
            .collect();
        assert_eq!(got_d, deletes[..got_d.len()].to_vec());
    }

    #[test]
    fn exhausted_write_keys_fall_back_to_probes() {
        let d = domain();
        let inserts = [10_000u64, 10_001];
        let deletes = [3u64];
        let ops = mixed_stream(
            &d,
            KeyPopularity::Uniform,
            OpMix::WRITE_HEAVY,
            &inserts,
            &deletes,
            100,
            3,
        );
        assert_eq!(count_inserts(&ops), 2);
        assert_eq!(count_deletes(&ops), 1);
    }

    #[test]
    fn streams_are_deterministic() {
        let d = domain();
        let inserts: Vec<u64> = (10_000..10_500u64).collect();
        let deletes: Vec<u64> = (0..100u64).collect();
        let pop = KeyPopularity::Zipfian { theta: 0.99 };
        let a = mixed_streams(&d, pop, OpMix::WRITE_HEAVY, &inserts, &deletes, 200, 4, 5);
        let b = mixed_streams(&d, pop, OpMix::WRITE_HEAVY, &inserts, &deletes, 200, 4, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn thread_write_slices_are_disjoint() {
        let d = domain();
        let inserts: Vec<u64> = (10_000..10_100u64).collect();
        let deletes: Vec<u64> = (0..40u64).collect();
        let streams = mixed_streams(
            &d,
            KeyPopularity::Uniform,
            OpMix::WRITE_HEAVY,
            &inserts,
            &deletes,
            60,
            4,
            6,
        );
        let mut seen: Vec<u64> = streams
            .iter()
            .flatten()
            .filter_map(|o| match o {
                Op::Insert(k) | Op::Delete(k) => Some(*k),
                Op::Probe(_) => None,
            })
            .collect();
        let n = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), n, "a write key was issued twice");
    }

    #[test]
    fn probe_keys_come_from_the_domain() {
        let d: Vec<u64> = (0..100u64).map(|i| i * 7).collect();
        let ops = mixed_stream(
            &d,
            KeyPopularity::Zipfian { theta: 1.1 },
            OpMix::YCSB_B,
            &[],
            &[],
            500,
            8,
        );
        for op in ops {
            if let Op::Probe(k) = op {
                assert!(d.binary_search(&k).is_ok());
            }
        }
    }
}
