//! Key-popularity distributions for skewed probe workloads.
//!
//! The paper's experiments probe uniformly random keys; a serving path
//! meant for "heavy traffic" must also survive *skew*, where a few hot
//! keys absorb most of the operations. This module provides the two
//! classic skew models of the YCSB benchmark suite:
//!
//! * [`Zipfian`] — rank `k` receives probability ∝ `k^-θ`, sampled by
//!   rejection-inversion (Hörmann & Derflinger), O(1) per draw with no
//!   O(n) table, for any domain size.
//! * Hotspot — a fraction of the keyspace (the *hot set*) receives a
//!   fixed fraction of the operations, uniform within each set.
//!
//! [`KeyPopularity`] names the distribution; [`KeySampler`] draws
//! 0-based domain indexes from it. Everything is deterministic from a
//! seed, like every other generator in this crate.

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

/// Which popularity distribution governs key choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyPopularity {
    /// Every key equally likely (the paper's §6.2 workload).
    Uniform,
    /// Zipfian over key *ranks*: the key at domain index `k` (0-based)
    /// has probability ∝ `(k+1)^-θ`. YCSB's default skew is θ = 0.99.
    Zipfian {
        /// Skew exponent θ > 0; larger is more skewed.
        theta: f64,
    },
    /// The first `hot_fraction` of the domain receives `hot_weight` of
    /// all operations, uniform within the hot and cold sets (YCSB's
    /// "hotspot" distribution).
    Hotspot {
        /// Fraction of the keyspace that is hot, in (0, 1].
        hot_fraction: f64,
        /// Fraction of operations that land in the hot set, in [0, 1].
        hot_weight: f64,
    },
}

/// Zipfian sampler over ranks `{0, …, n-1}` with `P(k) ∝ (k+1)^-θ`,
/// using rejection-inversion sampling (Hörmann & Derflinger 1996, the
/// algorithm behind Apache Commons' and `rand_distr`'s Zipf): constant
/// expected time per draw, no precomputed table, so it scales to
/// paper-sized key domains.
#[derive(Debug, Clone, Copy)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    h_x1: f64,
    h_n: f64,
    s: f64,
}

impl Zipfian {
    /// Sampler over `n ≥ 1` ranks with exponent `theta > 0`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 1, "empty Zipfian domain");
        assert!(theta > 0.0 && theta.is_finite(), "theta must be > 0");
        let h = |x: f64| h_integral(x, theta);
        let h_x1 = h(1.5) - 1.0;
        let h_n = h(n as f64 + 0.5);
        let s = 2.0 - h_integral_inverse(h(2.5) - 2f64.powf(-theta), theta);
        Self {
            n,
            theta,
            h_x1,
            h_n,
            s,
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether the domain is empty (never true: `new` requires n ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Draw one 0-based rank; rank 0 is the hottest.
    pub fn sample<R: RngCore>(&self, rng: &mut R) -> u64 {
        loop {
            let u = self.h_n + rng.random_range(0.0..1.0) * (self.h_x1 - self.h_n);
            let x = h_integral_inverse(u, self.theta);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            if k - x <= self.s || u >= h_integral(k + 0.5, self.theta) - (k.powf(-self.theta)) {
                return k as u64 - 1;
            }
        }
    }
}

/// `H(x) = ∫₁ˣ t^-θ dt`, the antiderivative rejection-inversion flips.
fn h_integral(x: f64, theta: f64) -> f64 {
    if (theta - 1.0).abs() < 1e-12 {
        x.ln()
    } else {
        (x.powf(1.0 - theta) - 1.0) / (1.0 - theta)
    }
}

/// Inverse of [`h_integral`].
fn h_integral_inverse(x: f64, theta: f64) -> f64 {
    if (theta - 1.0).abs() < 1e-12 {
        x.exp()
    } else {
        // Clamp keeps the base non-negative against rounding at the
        // extreme end of the u-range.
        (1.0 + (x * (1.0 - theta)).max(-1.0)).powf(1.0 / (1.0 - theta))
    }
}

/// Draws 0-based domain indexes under a [`KeyPopularity`].
#[derive(Debug, Clone)]
pub struct KeySampler {
    n: usize,
    popularity: KeyPopularity,
    zipf: Option<Zipfian>,
}

impl KeySampler {
    /// A sampler over a domain of `n ≥ 1` keys.
    pub fn new(n: usize, popularity: KeyPopularity) -> Self {
        assert!(n >= 1, "empty key domain");
        if let KeyPopularity::Hotspot {
            hot_fraction,
            hot_weight,
        } = popularity
        {
            assert!(
                hot_fraction > 0.0 && hot_fraction <= 1.0,
                "hot_fraction out of (0, 1]"
            );
            assert!(
                (0.0..=1.0).contains(&hot_weight),
                "hot_weight out of [0, 1]"
            );
        }
        let zipf = match popularity {
            KeyPopularity::Zipfian { theta } => Some(Zipfian::new(n as u64, theta)),
            _ => None,
        };
        Self {
            n,
            popularity,
            zipf,
        }
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the domain is empty (never true: `new` requires n ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Draw one 0-based domain index.
    pub fn sample<R: RngCore>(&self, rng: &mut R) -> usize {
        match self.popularity {
            KeyPopularity::Uniform => rng.random_range(0..self.n),
            KeyPopularity::Zipfian { .. } => self.zipf.expect("built in new").sample(rng) as usize,
            KeyPopularity::Hotspot {
                hot_fraction,
                hot_weight,
            } => {
                let hot_n = ((self.n as f64 * hot_fraction).ceil() as usize).clamp(1, self.n);
                if rng.random_bool(hot_weight) {
                    rng.random_range(0..hot_n)
                } else if hot_n < self.n {
                    rng.random_range(hot_n..self.n)
                } else {
                    rng.random_range(0..self.n)
                }
            }
        }
    }
}

/// Draw `n` probe keys from `domain` under `popularity` — the skewed
/// counterpart of [`crate::probes_from_domain`].
fn popular_probes(domain: &[u64], popularity: KeyPopularity, n: usize, seed: u64) -> Vec<u64> {
    let sampler = KeySampler::new(domain.len(), popularity);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| domain[sampler.sample(&mut rng)]).collect()
}

/// Independent per-thread probe streams: `threads` streams of
/// `ops_per_thread` keys each, every stream seeded separately from
/// `(seed, thread)` so workers never share an RNG (and adding a thread
/// never perturbs the other threads' streams).
pub fn popular_probe_streams(
    domain: &[u64],
    popularity: KeyPopularity,
    ops_per_thread: usize,
    threads: usize,
    seed: u64,
) -> Vec<Vec<u64>> {
    (0..threads)
        .map(|t| popular_probes(domain, popularity, ops_per_thread, thread_seed(seed, t)))
        .collect()
}

/// Decorrelated per-thread seed (splitmix-style golden-ratio stride).
pub(crate) fn thread_seed(seed: u64, thread: usize) -> u64 {
    seed ^ (thread as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact Zipfian probability of rank `k` (0-based) over n ranks.
    fn exact_p(k: usize, n: usize, theta: f64) -> f64 {
        let h: f64 = (1..=n).map(|i| (i as f64).powf(-theta)).sum();
        ((k + 1) as f64).powf(-theta) / h
    }

    #[test]
    fn zipfian_is_deterministic() {
        let d: Vec<u64> = (0..1_000u64).collect();
        let a = popular_probes(&d, KeyPopularity::Zipfian { theta: 0.99 }, 500, 7);
        let b = popular_probes(&d, KeyPopularity::Zipfian { theta: 0.99 }, 500, 7);
        assert_eq!(a, b);
        let c = popular_probes(&d, KeyPopularity::Zipfian { theta: 0.99 }, 500, 8);
        assert_ne!(a, c, "different seeds must give different streams");
    }

    #[test]
    fn zipfian_hottest_rank_frequency_matches_theory() {
        let n = 1_000usize;
        let draws = 200_000usize;
        for theta in [0.5, 0.99, 1.2] {
            let z = Zipfian::new(n as u64, theta);
            let mut rng = StdRng::seed_from_u64(42);
            let mut counts = vec![0u64; n];
            for _ in 0..draws {
                counts[z.sample(&mut rng) as usize] += 1;
            }
            let expect = exact_p(0, n, theta);
            let got = counts[0] as f64 / draws as f64;
            assert!(
                (got - expect).abs() / expect < 0.05,
                "theta {theta}: hottest rank freq {got:.4}, expected {expect:.4}"
            );
            // Aggregate head mass (top 10 ranks) also lands on theory.
            let expect10: f64 = (0..10).map(|k| exact_p(k, n, theta)).sum();
            let got10 = counts[..10].iter().sum::<u64>() as f64 / draws as f64;
            assert!(
                (got10 - expect10).abs() / expect10 < 0.03,
                "theta {theta}: top-10 mass {got10:.4}, expected {expect10:.4}"
            );
        }
    }

    #[test]
    fn zipfian_covers_only_the_domain() {
        let z = Zipfian::new(17, 0.99);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 17];
        for _ in 0..50_000 {
            seen[z.sample(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 17 ranks reachable");
    }

    #[test]
    fn zipfian_theta_one_is_handled() {
        let z = Zipfian::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut hot = 0u64;
        let draws = 100_000;
        for _ in 0..draws {
            if z.sample(&mut rng) == 0 {
                hot += 1;
            }
        }
        let expect = exact_p(0, 100, 1.0);
        let got = hot as f64 / draws as f64;
        assert!((got - expect).abs() / expect < 0.05, "{got} vs {expect}");
    }

    #[test]
    fn hotspot_weight_is_respected() {
        let sampler = KeySampler::new(
            10_000,
            KeyPopularity::Hotspot {
                hot_fraction: 0.1,
                hot_weight: 0.9,
            },
        );
        let mut rng = StdRng::seed_from_u64(11);
        let draws = 100_000;
        let hot = (0..draws)
            .filter(|_| sampler.sample(&mut rng) < 1_000)
            .count();
        let got = hot as f64 / draws as f64;
        assert!((got - 0.9).abs() < 0.01, "hot mass {got}, expected 0.9");
    }

    #[test]
    fn hotspot_is_deterministic() {
        let d: Vec<u64> = (0..500u64).map(|i| i * 2).collect();
        let pop = KeyPopularity::Hotspot {
            hot_fraction: 0.2,
            hot_weight: 0.8,
        };
        assert_eq!(
            popular_probes(&d, pop, 300, 9),
            popular_probes(&d, pop, 300, 9)
        );
    }

    #[test]
    fn uniform_sampler_matches_domain_bounds() {
        let sampler = KeySampler::new(64, KeyPopularity::Uniform);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(sampler.sample(&mut rng) < 64);
        }
    }

    #[test]
    fn per_thread_streams_are_independent_and_stable() {
        let d: Vec<u64> = (0..1_000u64).collect();
        let pop = KeyPopularity::Zipfian { theta: 0.99 };
        let s4 = popular_probe_streams(&d, pop, 100, 4, 77);
        let s8 = popular_probe_streams(&d, pop, 100, 8, 77);
        assert_eq!(s4.len(), 4);
        // Growing the thread count leaves existing streams untouched.
        assert_eq!(s4[..], s8[..4]);
        // Streams differ from each other.
        assert_ne!(s4[0], s4[1]);
    }
}
