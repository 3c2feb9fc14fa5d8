//! Order statistics over samples of one run.

/// Zero-based index of the nearest-rank `q`-quantile of `n` sorted samples. The
/// epsilon keeps `0.9 * 100` from rounding up to rank 91.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `values`; 0 when there are none.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q)]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; 0 when there are no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Whether the `q`-quantile of `n` samples has at least ten samples beyond it, the
/// rule for the highest percentile a run may report.
pub fn has_tail(n: usize, q: f64) -> bool {
    n > 0 && n - 1 - rank(n, q) >= 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert!(has_tail(100, 0.9));
        assert!(!has_tail(99, 0.9));
        assert!(has_tail(20, 0.5));
        assert!(!has_tail(19, 0.5));
        assert!(has_tail(1000, 0.99));
        assert!(!has_tail(999, 0.99));
    }
}
