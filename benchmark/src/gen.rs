//! The benchmark's own input generators.
//!
//! Everything the program under test receives is produced here from
//! `--seed`: one xoshiro stream (`bftree-rand`) per (workload, lane,
//! rep), a YCSB-style Zipfian(0.99) rank sampler, a rank→key scramble,
//! and the four op mixes. Nothing here depends on `bftree-workloads`,
//! so a refactor of that crate cannot change what is measured.
//!
//! Keys: relation R holds the **even** keys `0, 2, 4, …` in heap
//! order, so key `2·i` is heap tuple `i` and every odd key is a
//! guaranteed miss. Inserts are appends in key order only (`key >
//! max key so far`), the paper's setting. Scattered inserts are not
//! generated: a fresh key dropped into the middle of an ordered heap
//! makes `BfLeaf::insert` extend the leaf's page range to the heap
//! tail, and throughput then decays with run length (README, traffic
//! note).

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

/// Keys per `probe_cold` request.
pub const COLD_BATCH: usize = 256;
/// Keys per `serve_wire` PROBE_BATCH frame.
pub const WIRE_BATCH: usize = 16;
/// Consecutive keys one range request spans (≈ 32 heap pages).
pub const RANGE_SPAN: u64 = 512;
/// Match limit of a `serve_wire` RANGE_PAGE request.
pub const WIRE_RANGE_LIMIT: u64 = 128;
/// Zipfian skew (the YCSB default).
pub const THETA: f64 = 0.99;
/// How far back `ingest_file` reaches for "recently appended" probes
/// — several memtable generations, so half of those reads go through
/// the memtable merge and half through freshly flushed leaves.
pub const RECENT_WINDOW: u64 = 1024;

/// Workload tags mixed into stream seeds (and nothing else).
pub const TAG_PROBE_COLD: u64 = 1;
pub const TAG_SCAN_WARM: u64 = 2;
pub const TAG_INGEST_FILE: u64 = 3;
pub const TAG_SERVE_WIRE: u64 = 4;

/// splitmix64 finalizer: the one mixing primitive of this module.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG of stream `(seed, tag, lane, rep)`. Distinct coordinates
/// give unrelated streams; the same coordinates always give the same
/// one, so rep `r`'s inputs do not depend on how many reps ran.
pub fn stream(seed: u64, tag: u64, lane: u64, rep: u64) -> StdRng {
    let mut s = mix64(seed);
    for part in [tag, lane, rep] {
        s = mix64(s ^ part.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    }
    StdRng::seed_from_u64(s)
}

/// 64-bit running fingerprint of an op stream, printed by every
/// workload so that generator drift is visible in the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xBF7E_E000_0000_0001)
    }
}

impl Fingerprint {
    /// Fold one `(opcode, operand)` pair in.
    #[inline]
    pub fn fold(&mut self, opcode: u8, operand: u64) {
        self.0 = mix64(self.0 ^ operand.wrapping_mul(0x0100_0000_01B3) ^ u64::from(opcode));
    }
}

/// Zipfian rank sampler over `0..n` (Gray et al.'s closed form, the
/// one YCSB uses): rank 0 is the most popular. O(n) set-up for the
/// zeta constant, O(1) per draw.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl Zipfian {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 2, "Zipfian needs at least two ranks");
        assert!(theta > 0.0 && theta < 1.0, "theta in (0, 1)");
        let zetan: f64 = (1..=n).map(|i| (i as f64).powf(-theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        Self {
            n,
            theta,
            zetan,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    #[inline]
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let u = unit(rng);
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// Uniform f64 in `[0, 1)`.
#[inline]
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Rank → tuple-index bijection on `0..n`: spreads the hot ranks over
/// the whole heap (each hot key on its own page, as in YCSB's
/// scrambled Zipfian) instead of packing them into the first pages.
/// The offset comes from the seed, so which pages are hot differs per
/// seed while the popularity profile does not.
#[derive(Debug, Clone, Copy)]
pub struct Scramble {
    n: u64,
    offset: u64,
}

impl Scramble {
    /// 2^32 − 5 (prime): coprime to every `n` below it, so
    /// `rank·P mod n` is a bijection.
    const P: u64 = 4_294_967_291;

    pub fn new(n: u64, seed: u64) -> Self {
        assert!(n > 0 && n < Self::P, "domain fits the multiplier");
        Self {
            n,
            offset: mix64(seed ^ 0x5C2A_4B1E) % n,
        }
    }

    #[inline]
    pub fn index(&self, rank: u64) -> u64 {
        (rank * Self::P + self.offset) % self.n
    }
}

/// `probe_cold`: `batches × COLD_BATCH` uniform keys, 80 % present
/// (even) and 20 % absent (odd, inside the key domain so they route
/// to a real leaf and sweep its filters).
pub fn cold_keys(
    seed: u64,
    rep: u64,
    n_keys: u64,
    batches: usize,
    fp: &mut Fingerprint,
) -> Vec<u64> {
    let mut rng = stream(seed, TAG_PROBE_COLD, 0, rep);
    (0..batches * COLD_BATCH)
        .map(|_| {
            let idx = rng.random_range(0..n_keys);
            let key = 2 * idx + u64::from(rng.random_range(0..100u64) >= 80);
            fp.fold(1, key);
            key
        })
        .collect()
}

/// One `scan_warm` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanOp {
    /// Scalar probe of a present key.
    Probe(u64),
    /// `range_scan` over `RANGE_SPAN` consecutive keys starting at
    /// this tuple index.
    Range(u64),
}

/// `scan_warm`: 90 % Zipfian probes of present keys, 10 % range scans
/// from a uniform start.
pub fn scan_ops(
    seed: u64,
    lane: u64,
    rep: u64,
    n_keys: u64,
    count: usize,
    zipf: &Zipfian,
    fp: &mut Fingerprint,
) -> Vec<ScanOp> {
    let mut rng = stream(seed, TAG_SCAN_WARM, lane, rep);
    let scramble = Scramble::new(n_keys, seed);
    (0..count)
        .map(|_| {
            if rng.random_range(0..100u64) < 90 {
                let key = 2 * scramble.index(zipf.sample(&mut rng));
                fp.fold(1, key);
                ScanOp::Probe(key)
            } else {
                let start = rng.random_range(0..=n_keys - RANGE_SPAN);
                fp.fold(2, start);
                ScanOp::Range(start)
            }
        })
        .collect()
}

/// One `ingest_file` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOp {
    /// Append the next key in order (always `max key so far + 2`).
    Append(u64),
    /// Delete a base key (each at most once).
    Delete(u64),
    /// Probe a key: base, recently appended, or already deleted.
    Probe(u64),
}

/// `ingest_file`'s generator. Stateful across reps — the next append
/// key and the next delete victim continue where the previous rep
/// stopped — but each rep draws from its own stream.
#[derive(Debug, Clone)]
pub struct IngestGen {
    seed: u64,
    n_base: u64,
    appended: u64,
    deleted: u64,
    victims: Scramble,
}

impl IngestGen {
    pub fn new(seed: u64, n_base: u64) -> Self {
        Self {
            seed,
            n_base,
            appended: 0,
            deleted: 0,
            victims: Scramble::new(n_base, seed ^ 0xDE1E7E),
        }
    }

    /// 45 % ordered appends, 5 % deletes of base keys, 50 % probes —
    /// half of them of recently appended keys (so reads go through the
    /// memtable merge), half uniform over the base keys.
    pub fn rep(&mut self, rep: u64, count: usize, fp: &mut Fingerprint) -> Vec<IngestOp> {
        let mut rng = stream(self.seed, TAG_INGEST_FILE, 0, rep);
        (0..count)
            .map(|_| {
                let roll = rng.random_range(0..100u64);
                if roll < 45 {
                    let key = 2 * (self.n_base + self.appended);
                    self.appended += 1;
                    fp.fold(3, key);
                    IngestOp::Append(key)
                } else if roll < 50 && self.deleted < self.n_base {
                    let key = 2 * self.victims.index(self.deleted);
                    self.deleted += 1;
                    fp.fold(4, key);
                    IngestOp::Delete(key)
                } else {
                    let recent = rng.random_range(0..2u64) == 0 && self.appended > 0;
                    let idx = if recent {
                        let back = rng.random_range(0..self.appended.min(RECENT_WINDOW));
                        self.n_base + self.appended - 1 - back
                    } else {
                        rng.random_range(0..self.n_base)
                    };
                    fp.fold(1, 2 * idx);
                    IngestOp::Probe(2 * idx)
                }
            })
            .collect()
    }
}

/// One `serve_wire` request. The insert carries no key: the client
/// takes the next key in order under the insert lock at send time, so
/// two connections can never append out of order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireOp {
    /// PROBE_BATCH of `WIRE_BATCH` keys.
    ProbeBatch(Vec<u64>),
    /// First RANGE_PAGE of a `RANGE_SPAN`-key span from this tuple
    /// index, limit `WIRE_RANGE_LIMIT`.
    RangePage(u64),
    /// INSERT of the next key in order.
    Insert,
}

/// `serve_wire`: 90 % PROBE_BATCH (Zipfian keys, 10 % of them absent),
/// 5 % first RANGE_PAGE, 5 % INSERT.
///
/// Ranks map to keys directly here (rank `r` is key `2·r`, the hot keys
/// are the smallest), not through [`Scramble`]: the quantile shard plan
/// then gives the hot head its own small shards, and the index beneath
/// the shards stays cheap, which is what this workload needs to put
/// `net` and `shard` in front. (README, traffic note: with scrambled
/// ranks every shard's first BF-leaf spans the heap from page 0 and the
/// filter sweeps swamp the wire.)
pub fn wire_ops(
    seed: u64,
    lane: u64,
    rep: u64,
    n_keys: u64,
    count: usize,
    zipf: &Zipfian,
    fp: &mut Fingerprint,
) -> Vec<WireOp> {
    let mut rng = stream(seed, TAG_SERVE_WIRE, lane, rep);
    (0..count)
        .map(|_| {
            let roll = rng.random_range(0..100u64);
            if roll < 90 {
                let keys = (0..WIRE_BATCH)
                    .map(|_| {
                        let idx = zipf.sample(&mut rng);
                        let key = 2 * idx + u64::from(rng.random_range(0..100u64) >= 90);
                        fp.fold(1, key);
                        key
                    })
                    .collect();
                WireOp::ProbeBatch(keys)
            } else if roll < 95 {
                let start = rng.random_range(0..=n_keys - RANGE_SPAN);
                fp.fold(2, start);
                WireOp::RangePage(start)
            } else {
                fp.fold(3, 0);
                WireOp::Insert
            }
        })
        .collect()
}

/// Sorted sample of the `serve_wire` probe-key distribution, for the
/// quantile shard plan.
pub fn wire_key_sample(seed: u64, draws: usize, zipf: &Zipfian) -> Vec<u64> {
    let mut rng = stream(seed, TAG_SERVE_WIRE, u64::MAX, 0);
    let mut sample: Vec<u64> = (0..draws).map(|_| 2 * zipf.sample(&mut rng)).collect();
    sample.sort_unstable();
    sample
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u64 = 20_000;

    #[test]
    fn streams_are_deterministic_per_seed_and_distinct_across_coordinates() {
        let draw = |seed, tag, lane, rep| stream(seed, tag, lane, rep).next_u64();
        assert_eq!(draw(1, 2, 0, 3), draw(1, 2, 0, 3));
        let all = [
            draw(1, 2, 0, 3),
            draw(2, 2, 0, 3),
            draw(1, 3, 0, 3),
            draw(1, 2, 1, 3),
            draw(1, 2, 0, 4),
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn generators_repeat_per_seed_and_differ_across_seeds() {
        let zipf = Zipfian::new(N, THETA);
        let run = |seed| {
            let mut fp = Fingerprint::default();
            let cold = cold_keys(seed, 1, N, 8, &mut fp);
            let scan = scan_ops(seed, 0, 1, N, 2_000, &zipf, &mut fp);
            let ingest = IngestGen::new(seed, N).rep(1, 2_000, &mut fp);
            let wire = wire_ops(seed, 1, 1, N, 500, &zipf, &mut fp);
            (cold, scan, ingest, wire, fp)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).4, run(8).4);
    }

    fn share(hits: usize, total: usize) -> f64 {
        hits as f64 / total as f64
    }

    #[test]
    fn op_mix_shares_are_within_half_a_percent_of_nominal() {
        let zipf = Zipfian::new(N, THETA);
        let mut fp = Fingerprint::default();
        let total = 200_000;

        let cold = cold_keys(1, 1, N, total / COLD_BATCH, &mut fp);
        let absent = cold.iter().filter(|k| *k % 2 == 1).count();
        assert!((share(absent, cold.len()) - 0.20).abs() < 0.005);

        let scan = scan_ops(1, 0, 1, N, total, &zipf, &mut fp);
        let ranges = scan
            .iter()
            .filter(|op| matches!(op, ScanOp::Range(_)))
            .count();
        assert!((share(ranges, total) - 0.10).abs() < 0.005);

        let ingest = IngestGen::new(1, 1 << 20).rep(1, total, &mut fp);
        let appends = ingest
            .iter()
            .filter(|op| matches!(op, IngestOp::Append(_)))
            .count();
        let deletes = ingest
            .iter()
            .filter(|op| matches!(op, IngestOp::Delete(_)))
            .count();
        assert!((share(appends, total) - 0.45).abs() < 0.005);
        assert!((share(deletes, total) - 0.05).abs() < 0.005);

        let wire = wire_ops(1, 0, 1, N, total, &zipf, &mut fp);
        let ranges = wire
            .iter()
            .filter(|op| matches!(op, WireOp::RangePage(_)))
            .count();
        let inserts = wire.iter().filter(|op| **op == WireOp::Insert).count();
        assert!((share(ranges, total) - 0.05).abs() < 0.005);
        assert!((share(inserts, total) - 0.05).abs() < 0.005);
        let (mut keys, mut odd) = (0usize, 0usize);
        for op in &wire {
            if let WireOp::ProbeBatch(batch) = op {
                assert_eq!(batch.len(), WIRE_BATCH);
                keys += batch.len();
                odd += batch.iter().filter(|k| *k % 2 == 1).count();
            }
        }
        assert!((share(odd, keys) - 0.10).abs() < 0.005);
    }

    #[test]
    fn appends_are_strictly_key_ordered_and_deletes_never_repeat() {
        let mut gen = IngestGen::new(3, N);
        let mut fp = Fingerprint::default();
        let mut last_append = 2 * (N - 1);
        let mut deleted = std::collections::HashSet::new();
        for rep in 0..4 {
            for op in gen.rep(rep, 5_000, &mut fp) {
                match op {
                    IngestOp::Append(key) => {
                        assert_eq!(key, last_append + 2, "next key in order");
                        last_append = key;
                    }
                    IngestOp::Delete(key) => {
                        assert!(key < 2 * N && key % 2 == 0, "a base key");
                        assert!(deleted.insert(key), "each victim once");
                    }
                    IngestOp::Probe(key) => assert!(key <= last_append),
                }
            }
        }
    }

    #[test]
    fn scramble_is_a_bijection() {
        for n in [1u64, 2, 97, 1 << 10, 20_971] {
            let s = Scramble::new(n, 11);
            let mut seen = vec![false; n as usize];
            for rank in 0..n {
                let idx = s.index(rank) as usize;
                assert!(!seen[idx]);
                seen[idx] = true;
            }
        }
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let zipf = Zipfian::new(N, THETA);
        let mut rng = stream(5, 0, 0, 0);
        let draws = 100_000;
        let mut top10 = 0;
        for _ in 0..draws {
            let r = zipf.sample(&mut rng);
            assert!(r < N);
            top10 += usize::from(r < 10);
        }
        // Σ_{k≤10} k^-0.99 / Σ_{k≤20000} k^-0.99 ≈ 0.28.
        let share = top10 as f64 / draws as f64;
        assert!((0.24..0.32).contains(&share), "top-10 share {share}");
    }
}
