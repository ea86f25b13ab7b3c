//! Order statistics shared by every report: medians, tx-weighted
//! percentiles, the highest percentile a sample count supports, and
//! quantiles of Prometheus bucket histograms.

/// The median of `values` (mean of the middle pair for even counts);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The arithmetic mean of `values`; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The mean of `values` without their lowest and highest tenth (at least
/// one of each once there are five values or more).
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = if sorted.len() >= 5 {
        (sorted.len() / 10).max(1)
    } else {
        0
    };
    mean(&sorted[cut..sorted.len() - cut])
}

/// The `q`-quantile (`0 < q ≤ 1`) of weighted samples `(value, weight)`:
/// the smallest value whose cumulative weight reaches `q` of the total.
/// A batch of `k` transactions that committed together is one sample of
/// weight `k`. `None` when the total weight is zero.
pub fn weighted_quantile(samples: &[(f64, u64)], q: f64) -> Option<f64> {
    let total: u64 = samples.iter().map(|&(_, weight)| weight).sum();
    if total == 0 {
        return None;
    }
    let mut sorted: Vec<(f64, u64)> = samples
        .iter()
        .copied()
        .filter(|&(_, weight)| weight > 0)
        .collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let target = (q * total as f64).ceil().max(1.0) as u64;
    let mut cumulative = 0u64;
    for (value, weight) in &sorted {
        cumulative += weight;
        if cumulative >= target {
            return Some(*value);
        }
    }
    sorted.last().map(|&(value, _)| value)
}

/// The percentiles a report may quote, lowest first.
pub const PERCENTILES: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// The highest of [`PERCENTILES`] that leaves at least ten of `samples`
/// beyond it — the highest percentile a run of that size can support.
pub fn supported_percentile(samples: u64) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|q| samples as f64 * (1.0 - q) >= 10.0 - 1e-9)
}

/// The `q`-quantile of a cumulative bucket histogram `(upper bound,
/// cumulative count)`, interpolating linearly inside the bucket the way
/// Prometheus' `histogram_quantile` does. The `+Inf` bucket answers with
/// the highest finite bound. `0.0` for an empty histogram.
pub fn histogram_quantile(buckets: &[(f64, u64)], q: f64) -> f64 {
    let Some(&(_, total)) = buckets.last() else {
        return 0.0;
    };
    if total == 0 {
        return 0.0;
    }
    let rank = q * total as f64;
    let mut lower_bound = 0.0;
    let mut lower_count = 0u64;
    for &(bound, cumulative) in buckets {
        if cumulative as f64 >= rank && cumulative > lower_count {
            if bound.is_infinite() {
                return lower_bound;
            }
            let inside = (rank - lower_count as f64) / (cumulative - lower_count) as f64;
            return lower_bound + (bound - lower_bound) * inside.clamp(0.0, 1.0);
        }
        if bound.is_finite() {
            lower_bound = bound;
        }
        lower_count = cumulative;
    }
    lower_bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mean() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_the_extremes() {
        assert_eq!(trimmed_mean(&[1.0, 2.0, 9.0]), 4.0);
        assert_eq!(trimmed_mean(&[100.0, 2.0, 3.0, 4.0, 0.0]), 3.0);
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(trimmed_mean(&twenty), 9.5);
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn weighted_quantiles_count_transactions_not_batches() {
        // One slow batch of 98 txs outweighs two fast single-tx batches.
        let samples = [(0.1, 1), (0.2, 1), (5.0, 98)];
        assert_eq!(weighted_quantile(&samples, 0.5), Some(5.0));
        assert_eq!(weighted_quantile(&samples, 0.01), Some(0.1));
        assert_eq!(weighted_quantile(&samples, 0.02), Some(0.2));
        // Unweighted, the median would have been 0.2.
        let unweighted = [(0.1, 1), (0.2, 1), (5.0, 1)];
        assert_eq!(weighted_quantile(&unweighted, 0.5), Some(0.2));
    }

    #[test]
    fn weighted_quantile_edges() {
        assert_eq!(weighted_quantile(&[], 0.5), None);
        assert_eq!(weighted_quantile(&[(1.0, 0)], 0.5), None);
        let samples: Vec<(f64, u64)> = (1..=100).map(|v| (v as f64, 1)).collect();
        assert_eq!(weighted_quantile(&samples, 0.99), Some(99.0));
        assert_eq!(weighted_quantile(&samples, 1.0), Some(100.0));
    }

    #[test]
    fn supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(0.5));
        assert_eq!(supported_percentile(99), Some(0.5));
        assert_eq!(supported_percentile(100), Some(0.9));
        assert_eq!(supported_percentile(999), Some(0.9));
        assert_eq!(supported_percentile(1_000), Some(0.99));
        assert_eq!(supported_percentile(10_000), Some(0.999));
        assert_eq!(supported_percentile(10_000_000), Some(0.9999));
    }

    #[test]
    fn histogram_quantile_interpolates_within_buckets() {
        let buckets = [(1.0, 0), (2.0, 50), (4.0, 100), (f64::INFINITY, 100)];
        assert!((histogram_quantile(&buckets, 0.5) - 2.0).abs() < 1e-12);
        assert!((histogram_quantile(&buckets, 0.25) - 1.5).abs() < 1e-12);
        assert!((histogram_quantile(&buckets, 0.75) - 3.0).abs() < 1e-12);
        let overflow = [(1.0, 1), (f64::INFINITY, 2)];
        assert_eq!(histogram_quantile(&overflow, 0.99), 1.0);
        assert_eq!(histogram_quantile(&[], 0.5), 0.0);
    }
}
