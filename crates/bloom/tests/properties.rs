//! Property-based tests over the Bloom-filter substrate.
//!
//! Deterministic seeded random cases stand in for proptest (the build
//! is dependency-free); failures reproduce exactly from the seed.

use bftree_bloom::hash::KeyFingerprint;
use bftree_bloom::{math, BloomFilter, BloomGroup, FilterLayout};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

const CASES: u64 = 32;

fn keys(rng: &mut StdRng, lo: usize, hi: usize) -> Vec<u64> {
    let n = rng.random_range(lo..hi);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// The fundamental Bloom guarantee: zero false negatives, for any
/// key set, geometry and seed.
#[test]
fn no_false_negatives() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB100 + case);
        let keys = keys(&mut rng, 1, 500);
        let m_exp = rng.random_range(8u32..16);
        let k = rng.random_range(1u32..8);
        let mut bf = BloomFilter::new(1u64 << m_exp, k, rng.next_u64());
        for key in &keys {
            bf.insert(key);
        }
        for key in &keys {
            assert!(bf.contains(key), "case {case}");
        }
    }
}

/// Serialization is lossless for arbitrary filters.
#[test]
fn filter_roundtrip() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB200 + case);
        let keys = keys(&mut rng, 1, 200);
        let m_exp = rng.random_range(6u32..14);
        let k = rng.random_range(1u32..6);
        let mut bf = BloomFilter::new(1u64 << m_exp, k, rng.next_u64());
        for key in &keys {
            bf.insert(key);
        }
        let back = BloomFilter::from_bytes(&bf.to_bytes()).expect("roundtrip");
        assert_eq!(bf, back, "case {case}");
    }
}

/// Equation 1 inverse identities hold across the whole useful range.
#[test]
fn eq1_inverses() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB400 + case);
        let n = rng.random_range(1u64..1_000_000);
        let p = 10f64.powi(-(rng.random_range(1u32..15) as i32));
        let m = math::bits_for(n, p);
        let n_back = math::capacity_for(m, p);
        // Ceil then floor: n_back >= n, within one key of exact.
        assert!(n_back >= n, "case {case}");
        assert!(n_back <= n + (n / 1000) + 2, "case {case}");
    }
}

/// Equation 14 is monotone in the insert ratio and anchored at the
/// initial fpp.
#[test]
fn eq14_monotone() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB500 + case);
        let p = 10f64.powi(-(rng.random_range(1u32..10) as i32));
        let r1 = rng.random_range(0.0..5.0);
        let r2 = rng.random_range(0.0..5.0);
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let f_lo = math::fpp_after_inserts(p, lo);
        let f_hi = math::fpp_after_inserts(p, hi);
        assert!(f_lo <= f_hi + 1e-15, "case {case}");
        assert!(math::fpp_after_inserts(p, 0.0) >= p * 0.999, "case {case}");
        assert!(f_hi < 1.0, "case {case}");
    }
}

/// BloomGroup routing: every key is found in its home bucket via
/// matching_buckets, regardless of distribution.
#[test]
fn group_finds_home_bucket() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB600 + case);
        let keys = keys(&mut rng, 1, 300);
        let s = rng.random_range(1usize..32);
        let mut g = BloomGroup::new(1 << 16, s, 3, rng.next_u64());
        for (i, key) in keys.iter().enumerate() {
            g.insert(i % s, key);
        }
        let mut m = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            m.clear();
            g.matching_buckets_into(key, &mut m);
            assert!(m.contains(&(i % s)), "case {case}");
        }
    }
}

/// The filter-major group as the paper draws it and as the image
/// stores it: member `b` owns bits `[b·per, (b+1)·per)` of one packed
/// array, read and written a bit at a time. The reference the
/// bit-sliced [`BloomGroup`] is held against.
struct FilterMajorModel {
    words: Vec<u64>,
    per: u64,
    s: usize,
    k: u32,
    seed: u64,
    layout: FilterLayout,
}

impl FilterMajorModel {
    fn bit(&self, at: u64) -> bool {
        self.words[(at / 64) as usize] & (1 << (at % 64)) != 0
    }

    /// The key's `k` probe positions inside a member.
    fn positions(&self, key: u64) -> Vec<u64> {
        let fp = KeyFingerprint::new(&key, self.seed);
        let (off, window) = self.layout.probe_window(&fp, self.per);
        (0..self.k).map(|i| off + fp.probe(i, window)).collect()
    }

    fn extend_to(&mut self, s: usize) {
        self.s = s;
        let bits = self.per * s as u64;
        self.words.resize(bits.div_ceil(64) as usize, 0);
    }

    fn insert(&mut self, b: usize, key: u64) {
        for pos in self.positions(key) {
            let at = b as u64 * self.per + pos;
            self.words[(at / 64) as usize] |= 1 << (at % 64);
        }
    }

    fn matching(&self, key: u64) -> Vec<usize> {
        let positions = self.positions(key);
        let holds = |b: &usize| {
            let base = *b as u64 * self.per;
            positions.iter().all(|&pos| self.bit(base + pos))
        };
        (0..self.s).filter(holds).collect()
    }

    fn ones(&self, b: usize) -> u64 {
        let base = b as u64 * self.per;
        (base..base + self.per).filter(|&at| self.bit(at)).count() as u64
    }

    /// The body of the serialized image: the packed words,
    /// little-endian.
    fn body(&self) -> Vec<u8> {
        self.words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }
}

/// The bit-sliced in-memory layout answers exactly as the filter-major
/// one: across tile-boundary sizes, member widths around a word and a
/// block, `k` beyond 64 and both probe layouts, with inserts
/// interleaved with growth that crosses a tile boundary, the sweep,
/// `contains`, `ones` and the serialized bytes all equal the model's
/// after every step.
#[test]
fn bit_sliced_group_equals_the_filter_major_model() {
    let mut rng = StdRng::seed_from_u64(0xB700);
    for s0 in [1usize, 2, 63, 64, 65, 103, 128, 129, 6_800] {
        for per in [1u64, 4, 63, 64, 318, 513, 32_768] {
            if per == 32_768 && s0 > 3 {
                continue;
            }
            for k in [1u32, 3, 4, 5, 14, 65] {
                for layout in [FilterLayout::Standard, FilterLayout::Blocked] {
                    let seed = rng.next_u64();
                    let mut g = BloomGroup::new_with_layout(per * s0 as u64, s0, k, seed, layout);
                    let mut model = FilterMajorModel {
                        words: Vec::new(),
                        per,
                        s: 0,
                        k,
                        seed,
                        layout,
                    };
                    let mut inserted = Vec::new();
                    // `s0 + 64` always crosses a multiple of 64.
                    for s in [s0, s0 + 1, s0 + 64] {
                        let case = format!("s {s0}->{s} per {per} k {k} {layout:?}");
                        g.extend_to(s);
                        model.extend_to(s);
                        assert_eq!(g.len(), s, "{case}");
                        for _ in 0..24 {
                            // Half the inserts go to the newest members.
                            let b = if rng.random_range(0u32..2) == 0 {
                                s - 1 - rng.random_range(0..s.min(3))
                            } else {
                                rng.random_range(0..s)
                            };
                            let key = rng.next_u64();
                            g.insert(b, &key);
                            model.insert(b, key);
                            inserted.push((b, key));
                        }
                        let present = inserted.iter().rev().step_by(17).map(|&(_, key)| key);
                        let absent = (0..2).map(|_| rng.next_u64());
                        let mut swept = Vec::new();
                        for key in present.chain(absent).collect::<Vec<_>>() {
                            swept.clear();
                            g.matching_buckets_into(&key, &mut swept);
                            let scalar: Vec<usize> =
                                (0..s).filter(|&b| g.contains(b, &key)).collect();
                            assert_eq!(swept, scalar, "{case}: sweep vs contains");
                            assert_eq!(swept, model.matching(key), "{case}: sweep vs model");
                        }
                        for &(b, key) in &inserted {
                            assert!(g.contains(b, &key), "{case}: false negative");
                        }
                        // About 20 000 bits' worth of members, and both
                        // ends of the last tile.
                        let stride = (s * per as usize / 20_000).max(1);
                        for b in (0..s).step_by(stride).chain([s - 1, (s - 1) / 64 * 64]) {
                            assert_eq!(g.ones(b), model.ones(b), "{case}: ones({b})");
                        }
                        let image = g.to_bytes();
                        assert_eq!(image[36..], model.body(), "{case}: image body");
                        // `from_bytes` refuses more probes than bits.
                        if u64::from(k) <= g.total_bits() {
                            assert_eq!(
                                BloomGroup::from_bytes(&image).as_ref(),
                                Some(&g),
                                "{case}: roundtrip"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Blocked layout: the measured false-positive rate of a seeded
/// blocked filter stays within the analytic bound of
/// [`math::blocked_fpp`] (and the bound itself stays a modest factor
/// above the standard-layout rate).
#[test]
fn blocked_fpp_measured_within_analytic_bound() {
    use bftree_bloom::{BlockedBloomFilter, BloomFilter};
    for (case, &(n, p)) in [(20_000u64, 1e-2), (50_000, 1e-3), (8_000, 5e-2)]
        .iter()
        .enumerate()
    {
        let seed = 0xB10C_0000 + case as u64;
        let mut blocked = BlockedBloomFilter::with_capacity(n, p, seed);
        let mut standard = BloomFilter::with_capacity(n, p, seed);
        for key in 0..n {
            blocked.insert(&key);
            standard.insert(&key);
        }
        let trials = 200_000u64;
        let measure = |f: &dyn Fn(&u64) -> bool| {
            (n..n + trials).filter(|k| f(k)).count() as f64 / trials as f64
        };
        let measured = measure(&|k| blocked.contains(k));
        let analytic =
            math::blocked_fpp(blocked.m_bits(), bftree_bloom::BLOCK_BITS, blocked.k(), n);
        // Within measurement noise of the analytic mixture...
        let sigma = (analytic * (1.0 - analytic) / trials as f64).sqrt();
        assert!(
            measured <= analytic + 4.0 * sigma + analytic * 0.25,
            "case {case}: measured {measured} vs analytic {analytic}"
        );
        // ...and the penalty over the standard layout is real but
        // bounded (the block mixture only adds a small constant factor
        // at these bits-per-key).
        let std_measured = measure(&|k| standard.contains(k));
        assert!(
            analytic < (std_measured.max(p) * 6.0).min(1.0),
            "case {case}: analytic {analytic} vs standard measured {std_measured}"
        );
    }
}

/// Deterministic check that the measured fpp tracks Equation 14 as keys
/// are inserted beyond capacity — the empirical backbone of Figure 14.
#[test]
fn fpp_degradation_tracks_eq14() {
    let p0 = 0.01;
    let n = 20_000u64;
    let m = math::bits_for(n, p0);
    let k = math::optimal_k(m, n);
    let mut bf = BloomFilter::new(m, k, 123);
    for key in 0..n {
        bf.insert(&key);
    }

    let measure = |bf: &BloomFilter| -> f64 {
        let trials = 200_000u64;
        let fp = (10_000_000..10_000_000 + trials)
            .filter(|key| bf.contains(key))
            .count();
        fp as f64 / trials as f64
    };

    let baseline = measure(&bf);
    assert!((baseline - p0).abs() < p0 * 0.5, "baseline {baseline}");

    // Insert 10% more keys; Eq. 14 predicts p0^(1/1.1).
    for key in n..(n + n / 10) {
        bf.insert(&key);
    }
    let degraded = measure(&bf);
    let predicted = math::fpp_after_inserts(p0, 0.10);
    assert!(
        degraded > baseline,
        "fpp should grow: {baseline} -> {degraded}"
    );
    assert!(
        (degraded - predicted).abs() < predicted,
        "measured {degraded}, Eq.14 predicts {predicted}"
    );
}
