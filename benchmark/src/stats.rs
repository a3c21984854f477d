//! Exact order statistics over raw samples (no histogram buckets).

/// The `p`-quantile of an ascending slice by nearest rank: the
/// smallest sample with at least `p·n` samples at or below it. With
/// `n` requests the p99 has `n/100` samples beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of the values (mean of the middle two for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, 0 when the denominator is 0 — per-layer ratios are 0
/// on the workloads that do not load the layer.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_a_sorted_reference() {
        // Reference: count samples ≤ candidate until the share reaches p.
        let reference = |sorted: &[u64], p: f64| {
            *sorted
                .iter()
                .find(|&&c| {
                    let at_or_below = sorted.iter().filter(|&&s| s <= c).count();
                    at_or_below as f64 >= p * sorted.len() as f64
                })
                .unwrap()
        };
        let mut samples: Vec<u64> = (0..1_000u64)
            .map(|i| crate::gen::mix64(i) % 10_007)
            .collect();
        samples.sort_unstable();
        for p in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(percentile(&samples, p), reference(&samples, p), "p={p}");
        }
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(percentile(&[], 0.5), 0);
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.99), 99);
        assert_eq!(percentile(&hundred, 0.50), 50);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
