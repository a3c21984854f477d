//! Property-based tests over the Bloom-filter substrate.
//!
//! Deterministic seeded random cases stand in for proptest (the build
//! is dependency-free); failures reproduce exactly from the seed.

use std::collections::BTreeMap;

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
/// stores it: member `b` owns bits `[starts[b], starts[b+1])` of one
/// packed array (`starts[b] = b·per` when the budget is divided
/// evenly), read and written a bit at a time. The reference the
/// bit-sliced [`BloomGroup`] is held against.
struct FilterMajorModel {
    words: Vec<u64>,
    starts: Vec<u64>,
    k: u32,
    seed: u64,
    layout: FilterLayout,
}

impl FilterMajorModel {
    /// An empty model of `g`'s geometry.
    fn of(g: &BloomGroup) -> Self {
        let mut model = Self {
            words: Vec::new(),
            starts: vec![0],
            k: g.k(),
            seed: g.seed(),
            layout: g.layout(),
        };
        model.push((0..g.len()).map(|b| g.member_bits(b)));
        model
    }

    fn push(&mut self, sizes: impl IntoIterator<Item = u64>) {
        for m in sizes {
            self.starts.push(self.total() + m);
        }
        self.words.resize(self.total().div_ceil(64) as usize, 0);
    }

    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    fn total(&self) -> u64 {
        *self.starts.last().unwrap()
    }

    fn size(&self, b: usize) -> u64 {
        self.starts[b + 1] - self.starts[b]
    }

    fn bit(&self, at: u64) -> bool {
        self.words[(at / 64) as usize] & (1 << (at % 64)) != 0
    }

    /// The key's `k` probe positions inside a member of `m` bits.
    fn positions(&self, m: u64, key: u64) -> Vec<u64> {
        let fp = KeyFingerprint::new(&key, self.seed);
        let (off, window) = self.layout.probe_window(&fp, m);
        (0..self.k).map(|i| off + fp.probe(i, window)).collect()
    }

    /// New members take the mean member size, `total / len` bits.
    fn extend_to(&mut self, s: usize) {
        let m = self.total() / self.len() as u64;
        self.push(std::iter::repeat_n(m, s - self.len()));
    }

    fn insert(&mut self, b: usize, key: u64) {
        for pos in self.positions(self.size(b), key) {
            let at = self.starts[b] + pos;
            self.words[(at / 64) as usize] |= 1 << (at % 64);
        }
    }

    fn matching(&self, key: u64) -> Vec<usize> {
        let mut by_size = BTreeMap::new();
        let mut holds = |b: &usize| {
            let m = self.size(*b);
            let positions = by_size.entry(m).or_insert_with(|| self.positions(m, key));
            positions.iter().all(|&pos| self.bit(self.starts[*b] + pos))
        };
        (0..self.len()).filter(&mut holds).collect()
    }

    fn ones(&self, b: usize) -> u64 {
        let bits = self.starts[b]..self.starts[b + 1];
        bits.filter(|&at| self.bit(at)).count() as u64
    }

    /// What the serialized image holds after its fixed header: the
    /// `S + 1` offsets unless every member has one size, then the
    /// packed words, little-endian.
    fn image_tail(&self) -> Vec<u8> {
        let one_size = (0..self.len()).all(|b| self.size(b) == self.size(0));
        let starts = if one_size { &[][..] } else { &self.starts[..] };
        let words = starts.iter().chain(&self.words);
        words.flat_map(|w| w.to_le_bytes()).collect()
    }
}

/// Grow an empty `g` and its model through `steps`, inserting keys
/// between, and require after every step that the sweep, `contains`,
/// `ones` and the serialized bytes of `g` all equal the model's.
fn assert_group_equals_model(mut g: BloomGroup, steps: [usize; 3], rng: &mut StdRng, name: &str) {
    let mut model = FilterMajorModel::of(&g);
    let mut inserted = Vec::new();
    for s in steps {
        let case = format!("{name} ->{s}");
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
            let scalar: Vec<usize> = (0..s).filter(|&b| g.contains(b, &key)).collect();
            assert_eq!(swept, scalar, "{case}: sweep vs contains");
            assert_eq!(swept, model.matching(key), "{case}: sweep vs model");
        }
        for &(b, key) in &inserted {
            assert!(g.contains(b, &key), "{case}: false negative");
        }
        // About 20 000 bits' worth of members, and both ends of the
        // last tile of an even division.
        let stride = (model.total() as usize / 20_000).max(1);
        for b in (0..s).step_by(stride).chain([s - 1, (s - 1) / 64 * 64]) {
            assert_eq!(g.member_bits(b), model.size(b), "{case}: size({b})");
            assert_eq!(g.ones(b), model.ones(b), "{case}: ones({b})");
        }
        let image = g.to_bytes();
        assert_eq!(image[36..], model.image_tail(), "{case}: image");
        // `from_bytes` refuses more probes than bits.
        if u64::from(g.k()) <= g.total_bits() {
            assert_eq!(
                BloomGroup::from_bytes(&image).as_ref(),
                Some(&g),
                "{case}: roundtrip"
            );
        }
    }
}

/// The bit-sliced in-memory layout answers exactly as the filter-major
/// one: across tile-boundary sizes, member widths around a word and a
/// block, `k` beyond 64 and both probe layouts, with inserts
/// interleaved with growth that crosses a tile boundary, the sweep,
/// `contains`, `ones` and the serialized bytes all equal the model's
/// after every step — for evenly divided groups and for weighted ones,
/// whose members fall into several size classes.
#[test]
fn bit_sliced_group_equals_the_filter_major_model() {
    let mut rng = StdRng::seed_from_u64(0xB700);
    let ks = [1u32, 3, 4, 5, 14, 65];
    let layouts = [FilterLayout::Standard, FilterLayout::Blocked];
    for s0 in [1usize, 2, 63, 64, 65, 103, 128, 129, 6_800] {
        for per in [1u64, 4, 63, 64, 318, 513, 32_768] {
            if per == 32_768 && s0 > 3 {
                continue;
            }
            for (k, layout) in ks.iter().flat_map(|&k| layouts.map(|l| (k, l))) {
                let seed = rng.next_u64();
                let g = BloomGroup::new_with_layout(per * s0 as u64, s0, k, seed, layout);
                let name = format!("s {s0} per {per} k {k} {layout:?}");
                // `s0 + 64` always crosses a multiple of 64.
                assert_group_equals_model(g, [s0, s0 + 1, s0 + 64], &mut rng, &name);
            }
        }
    }
    // Skewed like TPCH's per-page key counts: mostly 0, some 1, few 2.
    let tpch: Vec<u64> = (0..103)
        .map(|_| [0, 0, 0, 1, 1, 2][rng.random_range(0..6usize)])
        .collect();
    // 150 members of weight 1 whose carry splits them into two sizes
    // with more than 64 members each, beside 50 of weight 3.
    let wide: Vec<u64> = (0..200).map(|b| if b % 4 == 3 { 3 } else { 1 }).collect();
    let weighted: [(&str, u64, &[u64]); 6] = [
        ("all zero", 4_096, &[0; 5]),
        ("some zero", 4_096, &[0, 0, 7, 0, 3]),
        ("equal, carried", 1_000, &[1; 7]),
        ("tpch skew", 32_768, &tpch),
        ("wide classes", 32_768, &wide),
        ("over a block", 1 << 16, &[10, 0, 40, 5, 120]),
    ];
    for (what, total_bits, weights) in weighted {
        let s0 = weights.len();
        for (k, layout) in ks.iter().flat_map(|&k| layouts.map(|l| (k, l))) {
            let seed = rng.next_u64();
            let g = BloomGroup::new_weighted_with_layout(total_bits, weights, k, seed, layout);
            let name = format!("weighted {what} k {k} {layout:?}");
            assert_group_equals_model(g, [s0, s0 + 1, s0 + 64], &mut rng, &name);
        }
    }
    // The cases have the shapes they are named for.
    let sizes = |w: &[u64], total| {
        let g = BloomGroup::new_weighted_with_layout(total, w, 1, 0, FilterLayout::Standard);
        let mut sizes: Vec<u64> = (0..w.len()).map(|b| g.member_bits(b)).collect();
        sizes.sort_unstable();
        sizes
    };
    let equal = sizes(&[1; 7], 1_000);
    assert_eq!(equal[0] + 1, equal[6], "two sizes");
    let wide = sizes(&wide, 32_768);
    let small = wide.iter().filter(|&&m| m == wide[0]).count();
    assert!(small > 64 && 150 - small > 64, "two classes of over 64");
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
