//! Section 7, Equation 14: how inserts and deletes degrade a Bloom
//! filter's effective false-positive probability when the BF-Tree is
//! left un-split (Figure 14).

/// Equation 14 (`new_fpp = fpp^(1/(1+insert_ratio))`) and the delete
/// rule live next to the rest of the Bloom math in
/// [`bftree_bloom::math`]; re-exported here so the model crate exposes
/// the complete Section-5/7 equation set.
pub use bftree_bloom::math::{fpp_after_deletes, fpp_after_inserts};

#[cfg(test)]
mod tests {
    use super::*;

    /// §7's worked example: "starting from fpp = 0.01 %, for 1 % more
    /// elements, new fpp ≈ 0.011 %, and for 10 % more elements,
    /// new fpp ≈ 0.23 %."
    #[test]
    fn paper_worked_example() {
        let f1 = fpp_after_inserts(1e-4, 0.01);
        assert!((1.0e-4..1.2e-4).contains(&f1), "f1 = {f1}");
        let f10 = fpp_after_inserts(1e-4, 0.10);
        assert!((2.0e-4..2.6e-4).contains(&f10), "f10 = {f10}");
    }

    #[test]
    fn zero_inserts_is_identity() {
        for fpp in [1e-4, 1e-3, 1e-2] {
            assert!((fpp_after_inserts(fpp, 0.0) - fpp).abs() < 1e-15);
        }
    }

    #[test]
    fn converges_to_one_in_the_long_run() {
        // Figure 14(b): by 600 % extra inserts the fpp has blown up.
        let f = fpp_after_inserts(1e-2, 6.0);
        assert!(f > 0.5, "f = {f}");
        let f = fpp_after_inserts(1e-4, 100.0);
        assert!(f > 0.9, "f = {f}");
    }

    #[test]
    fn monotone_in_insert_ratio() {
        let series: Vec<f64> = (0..=60)
            .map(|i| fpp_after_inserts(1e-3, 6.0 * i as f64 / 60.0))
            .collect();
        for w in series.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    /// Figure 14(a): the trend is near-linear for small insert ratios.
    #[test]
    fn near_linear_for_small_ratios() {
        let fpp = 1e-3;
        let d1 = fpp_after_inserts(fpp, 0.01) - fpp;
        let d12 = fpp_after_inserts(fpp, 0.12) - fpp;
        let linear_extrap = d1 * 12.0;
        // within 35 % of linear over the 0–12 % window
        assert!(
            (d12 - linear_extrap).abs() / d12 < 0.35,
            "d12={d12}, lin={linear_extrap}"
        );
    }

    #[test]
    fn deletes_add_directly() {
        assert!((fpp_after_deletes(1e-3, 0.10) - 0.101).abs() < 1e-12);
        assert_eq!(fpp_after_deletes(0.5, 0.9), 1.0);
    }
}
