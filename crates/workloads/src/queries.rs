//! Query workload generators (§6.1): fixed sets of probe keys shared
//! across storage configurations ("the same set of search keys is used
//! in each different configuration"), plus range-scan workloads for
//! Figure 13.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Draw `n` probe keys from `domain` uniformly at random with
/// replacement — the §6.2 workload ("a thousand index searches with a
/// random key"), hit rate 100 %.
pub fn probes_from_domain(domain: &[u64], n: usize, seed: u64) -> Vec<u64> {
    assert!(!domain.is_empty(), "empty probe domain");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| domain[rng.random_range(0..domain.len())])
        .collect()
}

/// A half-open key range `[lo, hi]` covering a target fraction of the
/// key domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeQuery {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
}

/// Generate `n` range scans each spanning `fraction` of the sorted
/// `domain` (Figure 13 uses 1 %, 5 %, 10 %, 20 %), uniformly placed.
pub fn range_queries(domain: &[u64], fraction: f64, n: usize, seed: u64) -> Vec<RangeQuery> {
    assert!(fraction > 0.0 && fraction <= 1.0);
    assert!(domain.len() >= 2, "need at least two keys for a range");
    let mut rng = StdRng::seed_from_u64(seed);
    let span = ((domain.len() as f64 * fraction) as usize).max(1);
    (0..n)
        .map(|_| {
            let start = rng.random_range(0..=domain.len() - span);
            RangeQuery {
                lo: domain[start],
                hi: domain[start + span - 1],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> Vec<u64> {
        (0..10_000u64).map(|i| i * 3).collect() // gaps everywhere
    }

    #[test]
    fn probes_all_exist() {
        let d = domain();
        for k in probes_from_domain(&d, 1_000, 1) {
            assert!(d.binary_search(&k).is_ok());
        }
    }

    #[test]
    fn ranges_cover_requested_fraction() {
        let d = domain();
        for frac in [0.01, 0.05, 0.10, 0.20] {
            for q in range_queries(&d, frac, 50, 3) {
                let lo_idx = d.binary_search(&q.lo).unwrap();
                let hi_idx = d.binary_search(&q.hi).unwrap();
                let got = (hi_idx - lo_idx + 1) as f64 / d.len() as f64;
                assert!((got - frac).abs() / frac < 0.02, "frac {frac}: got {got}");
            }
        }
    }

    #[test]
    fn deterministic_workloads() {
        let d = domain();
        assert_eq!(
            probes_from_domain(&d, 100, 9),
            probes_from_domain(&d, 100, 9)
        );
        assert_eq!(range_queries(&d, 0.1, 10, 9), range_queries(&d, 0.1, 10, 9));
    }
}
