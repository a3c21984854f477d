//! Dependency-free, deterministic stand-in for the `rand` crate.
//!
//! The reproduction builds in offline environments, so instead of the
//! real `rand` this tiny crate provides the exact subset the workspace
//! uses: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], and the
//! [`RngExt`] sampling helpers (`random_range`, `random_bool`), plus
//! the [`mutate`] battery's mutants of valid byte images.
//!
//! The generator is xoshiro256++ seeded through splitmix64 — the same
//! construction the real `rand` documents for `SeedableRng::seed_from_u64`
//! — so streams are high-quality and fully reproducible from a `u64`
//! seed, which is all the paper's "same set of search keys in each
//! configuration" requirement needs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Core RNG interface: a source of uniform `u64`s.
pub trait RngCore {
    /// Next uniform 64-bit value.
    fn next_u64(&mut self) -> u64;
}

/// Construction from seeds.
pub trait SeedableRng: Sized {
    /// Build an RNG from a 64-bit seed (splitmix64-expanded).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named RNGs, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard RNG: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            Self {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// A type usable as the argument of [`RngExt::random_range`].
pub trait SampleRange<T> {
    /// Sample a uniform value from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty random_range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + (uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty random_range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                lo + (uniform_below(rng, span) as $t)
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty random_range");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

/// Debiased uniform sample in `[0, span)` (Lemire-style rejection).
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let zone = u64::MAX - (u64::MAX - span + 1) % span;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % span;
        }
    }
}

/// Sampling conveniences, mirroring the `rand` crate's `Rng` methods.
pub trait RngExt: RngCore {
    /// Uniform sample from `range` (`a..b` or `a..=b`).
    #[inline]
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// `true` with probability `p`.
    #[inline]
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability out of [0,1]");
        self.random_range(0.0..1.0f64) < p
    }
}

impl<R: RngCore> RngExt for R {}

/// Mutants of valid byte images, for the decoder batteries: every
/// decoder of stored or received bytes must meet each one with a typed
/// error or a value, never a panic.
pub mod mutate {
    use super::rngs::StdRng;
    use super::{RngExt, SeedableRng};

    /// Call `f` on every mutant of the valid image `a`:
    /// - each truncation `a[..n]`, `n < a.len()`;
    /// - each single-bit flip;
    /// - each aligned `u32` and `u64` overwritten, little-endian, with
    ///   0, 1, `len − 1`, `len + 1`, `MAX − 1` and `MAX`, where `len`
    ///   is `a.len()`;
    /// - `splices` splices `a[..i] ‖ b[j..]` with the valid image `b`,
    ///   at cuts drawn from `seed`.
    pub fn each_mutant(a: &[u8], b: &[u8], seed: u64, splices: usize, mut f: impl FnMut(&[u8])) {
        for n in 0..a.len() {
            f(&a[..n]);
        }
        let mut m = a.to_vec();
        for bit in 0..a.len() * 8 {
            m[bit / 8] ^= 1 << (bit % 8);
            f(&m);
            m[bit / 8] ^= 1 << (bit % 8);
        }
        let len = a.len() as u64;
        let values = [0, 1, len.wrapping_sub(1), len + 1];
        for at in (0..a.len().saturating_sub(3)).step_by(4) {
            for v in values
                .map(|v| v as u32)
                .into_iter()
                .chain([u32::MAX - 1, u32::MAX])
            {
                m[at..at + 4].copy_from_slice(&v.to_le_bytes());
                f(&m);
            }
            m[at..at + 4].copy_from_slice(&a[at..at + 4]);
        }
        for at in (0..a.len().saturating_sub(7)).step_by(8) {
            for v in values.into_iter().chain([u64::MAX - 1, u64::MAX]) {
                m[at..at + 8].copy_from_slice(&v.to_le_bytes());
                f(&m);
            }
            m[at..at + 8].copy_from_slice(&a[at..at + 8]);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..splices {
            let i = rng.random_range(0..=a.len());
            let j = rng.random_range(0..=b.len());
            m.clear();
            m.extend_from_slice(&a[..i]);
            m.extend_from_slice(&b[j..]);
            f(&m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: u64 = rng.random_range(10..20);
            assert!((10..20).contains(&v));
            let w: usize = rng.random_range(0..3);
            assert!(w < 3);
            let x: u64 = rng.random_range(5..=5);
            assert_eq!(x, 5);
            let f: f64 = rng.random_range(0.0..1.0);
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn random_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.random_bool(0.25)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn every_mutant_class_is_generated_and_the_image_is_left_whole() {
        let a: Vec<u8> = (1..=16).collect();
        let mut mutants = Vec::new();
        mutate::each_mutant(&a, &[0xEE; 4], 7, 5, |m| mutants.push(m.to_vec()));
        // 16 truncations, 128 flips, 4 × 6 u32 and 2 × 6 u64 overwrites,
        // 5 splices.
        assert_eq!(mutants.len(), 16 + 128 + 24 + 12 + 5);
        assert_eq!(mutants[0], b"");
        assert_eq!(mutants[16][0], 0);
        let u32s = &mutants[16 + 128..16 + 128 + 6];
        let firsts: Vec<u32> = u32s
            .iter()
            .map(|m| u32::from_le_bytes([m[0], m[1], m[2], m[3]]))
            .collect();
        assert_eq!(firsts, [0, 1, 15, 17, u32::MAX - 1, u32::MAX]);
        assert!(u32s.iter().all(|m| m[4..] == a[4..]));
        let last_u64 = &mutants[16 + 128 + 24 + 11];
        assert_eq!(last_u64[..8], a[..8]);
        assert_eq!(last_u64[8..], [0xFF; 8]);
        let mut again = Vec::new();
        mutate::each_mutant(&a, &[0xEE; 4], 7, 5, |m| again.push(m.to_vec()));
        assert_eq!(mutants, again, "seeded");
    }

    #[test]
    fn uniform_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.random_range(0..10usize)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }
}
