//! Bloom-filter sizing identities used throughout the paper.
//!
//! Section 3 of the paper works from the standard approximation
//! (its Equation 1):
//!
//! ```text
//! n = -m · ln²(2) / ln(p)
//! ```
//!
//! relating capacity `n`, bit budget `m` and false-positive
//! probability `p` under an optimal number of hash functions
//! `k = (m/n)·ln 2`. Section 7 derives the fpp drift under inserts
//! (its Equation 14), reproduced here as [`fpp_after_inserts`].

/// ln²(2) ≈ 0.4805, the constant of Equation 1.
pub const LN2_SQUARED: f64 = core::f64::consts::LN_2 * core::f64::consts::LN_2;

/// Equation 1 solved for `n`: how many distinct keys a filter of `m`
/// bits can hold at false-positive probability `p`.
///
/// This is also the paper's Equation 5 when `m` is a page's bit budget
/// (`BFkeysperpage`).
pub fn capacity_for(m_bits: u64, p: f64) -> u64 {
    assert!(p > 0.0 && p < 1.0, "fpp must be in (0,1), got {p}");
    let n = -(m_bits as f64) * LN2_SQUARED / p.ln();
    n.floor() as u64
}

/// Equation 1 solved for `m`: bits needed to hold `n` keys at
/// false-positive probability `p`.
pub fn bits_for(n_keys: u64, p: f64) -> u64 {
    assert!(p > 0.0 && p < 1.0, "fpp must be in (0,1), got {p}");
    if n_keys == 0 {
        return 0;
    }
    let m = -(n_keys as f64) * p.ln() / LN2_SQUARED;
    m.ceil() as u64
}

/// Equation 1 solved for `p`: the design false-positive probability of
/// a filter with `m` bits holding `n` keys (optimal `k` assumed).
pub fn fpp_for(m_bits: u64, n_keys: u64) -> f64 {
    if n_keys == 0 {
        return 0.0;
    }
    assert!(m_bits > 0, "zero-bit filter cannot hold keys");
    (-(m_bits as f64) * LN2_SQUARED / n_keys as f64).exp()
}

/// The optimal number of hash functions `k = (m/n)·ln 2`, clamped to
/// at least 1.
pub fn optimal_k(m_bits: u64, n_keys: u64) -> u32 {
    if n_keys == 0 {
        return 1;
    }
    let k = (m_bits as f64 / n_keys as f64) * core::f64::consts::LN_2;
    (k.round() as u32).max(1)
}

/// The exact expected false-positive rate of a filter with `m` bits,
/// `k` hashes and `n` inserted keys: `(1 - e^{-kn/m})^k`.
///
/// Unlike [`fpp_for`] this does not assume the optimal `k`, so it is
/// what the empirical experiments (Figure 14) are checked against.
pub fn expected_fpp(m_bits: u64, k: u32, n_keys: u64) -> f64 {
    if n_keys == 0 {
        return 0.0;
    }
    assert!(m_bits > 0 && k > 0);
    let exponent = -(k as f64) * (n_keys as f64) / (m_bits as f64);
    (1.0 - exponent.exp()).powi(k as i32)
}

/// Equation 14: the false-positive probability after inserting
/// `insert_ratio · n` additional keys into a filter designed for fpp
/// `initial_fpp`:
///
/// ```text
/// new_fpp = fpp^(1 / (1 + insert_ratio))
/// ```
///
/// Notably independent of both the filter size and the absolute number
/// of keys.
pub fn fpp_after_inserts(initial_fpp: f64, insert_ratio: f64) -> f64 {
    assert!(initial_fpp > 0.0 && initial_fpp < 1.0);
    assert!(insert_ratio >= 0.0);
    initial_fpp.powf(1.0 / (1.0 + insert_ratio))
}

/// Section 7's delete rule: removing a fraction `delete_ratio` of the
/// entries without rebuilding adds that fraction of artificial false
/// positives: `new_fpp = fpp + delete_ratio`.
pub fn fpp_after_deletes(initial_fpp: f64, delete_ratio: f64) -> f64 {
    assert!((0.0..=1.0).contains(&delete_ratio));
    (initial_fpp + delete_ratio).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_and_bits_are_inverse() {
        for &p in &[0.1, 0.01, 1e-4, 1e-8] {
            let m = 4096 * 8;
            let n = capacity_for(m, p);
            let m_back = bits_for(n, p);
            // Rounding means m_back <= m but close.
            assert!(m_back <= m);
            assert!(m_back as f64 >= m as f64 * 0.999, "p={p}: {m_back} vs {m}");
        }
    }

    #[test]
    fn paper_example_4kb_page() {
        // A 4 KB page has 32768 bits. At fpp = 0.01 Equation 1 gives
        // n = 32768 * 0.4805 / 4.605 ≈ 3419.
        let n = capacity_for(4096 * 8, 0.01);
        assert!((3400..=3440).contains(&n), "n = {n}");
    }

    #[test]
    fn fpp_for_inverts_capacity() {
        let m = 1 << 15;
        let n = capacity_for(m, 1e-3);
        let p = fpp_for(m, n);
        assert!((p.log10() - (-3.0)).abs() < 0.01, "p = {p}");
    }

    #[test]
    fn lower_fpp_needs_logarithmically_more_bits() {
        // Property 2 of Section 3: decreasing p has a logarithmic effect.
        let n = 10_000;
        let m3 = bits_for(n, 1e-3);
        let m6 = bits_for(n, 1e-6);
        let m9 = bits_for(n, 1e-9);
        let d1 = m6 - m3;
        let d2 = m9 - m6;
        // Equal increments of -log10(p) cost equal increments of bits.
        assert!(((d1 as f64) - (d2 as f64)).abs() < 0.01 * d1 as f64);
    }

    #[test]
    fn optimal_k_examples() {
        // m/n = 10 bits per key -> k ≈ 6.93 -> 7.
        assert_eq!(optimal_k(10_000, 1000), 7);
        // m/n ≈ 4.8 (fpp 0.1) -> k ≈ 3.3 -> 3.
        let n = capacity_for(32768, 0.1);
        assert_eq!(optimal_k(32768, n), 3);
        assert_eq!(optimal_k(100, 0), 1);
    }

    #[test]
    fn expected_fpp_matches_design_at_optimal_k() {
        let m = 1 << 16;
        let p = 1e-3;
        let n = capacity_for(m, p);
        let k = optimal_k(m, n);
        let e = expected_fpp(m, k, n);
        // Within a factor ~2 (k is rounded to an integer).
        assert!(e < p * 2.0 && e > p / 2.0, "e = {e}");
    }

    #[test]
    fn eq14_paper_examples() {
        // Paper: fpp=0.01%, 1% more elements -> ≈ 0.011%.
        let f = fpp_after_inserts(1e-4, 0.01);
        assert!((f - 1.095e-4).abs() < 5e-6, "f = {f}");
        // Paper: fpp=0.01%, 10% more -> ≈ 0.23%... (text says 0.23%, the
        // formula gives 1e-4^(1/1.1) = 10^(-4/1.1) = 10^-3.636 ≈ 2.3e-4).
        let f = fpp_after_inserts(1e-4, 0.10);
        assert!((f - 2.31e-4).abs() < 2e-5, "f = {f}");
    }

    #[test]
    fn eq14_is_size_independent_and_monotone() {
        let base = fpp_after_inserts(1e-3, 0.0);
        assert!((base - 1e-3).abs() < 1e-12);
        let mut prev = base;
        for step in 1..=20 {
            let r = step as f64 * 0.05;
            let f = fpp_after_inserts(1e-3, r);
            assert!(f > prev);
            prev = f;
        }
        // Converges towards 1 for huge insert ratios.
        assert!(fpp_after_inserts(1e-3, 1e6) > 0.99);
    }

    #[test]
    fn deletes_add_linear_fpp() {
        assert!((fpp_after_deletes(1e-3, 0.10) - 0.101).abs() < 1e-9);
        assert_eq!(fpp_after_deletes(0.5, 0.9), 1.0);
    }

    #[test]
    #[should_panic(expected = "fpp must be in (0,1)")]
    fn rejects_invalid_fpp() {
        capacity_for(1024, 1.5);
    }
}
