//! Summary statistics for the figure reports.

/// Geometric mean of a series of positive ratios (used for paper-style
/// "geo.-mean speedup" summaries). Returns `None` when empty or when any
/// ratio is non-positive.
pub fn geometric_mean(ratios: &[f64]) -> Option<f64> {
    if ratios.is_empty() || ratios.iter().any(|&r| r <= 0.0 || !r.is_finite()) {
        return None;
    }
    let log_sum: f64 = ratios.iter().map(|r| r.ln()).sum();
    Some((log_sum / ratios.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_mean() {
        let g = geometric_mean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), None);
        assert_eq!(geometric_mean(&[1.0, 0.0]), None);
        assert_eq!(geometric_mean(&[1.0, -2.0]), None);
        // Paper-style: speedups 1.21, 1.5, 2.46 -> geo-mean ~1.65
        let g = geometric_mean(&[1.21, 1.5, 2.46]).unwrap();
        assert!(g > 1.6 && g < 1.7);
    }
}
