//! Order statistics over small sets of run or segment values.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method) — the driver judges spread with that function, so `--aa`
/// must agree with it to the last digit.
///
/// # Panics
/// Panics on fewer than two values or a NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let v = sorted(values);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median; 0 for
/// fewer than two values.
pub fn spread_iqr(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a metric series"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    /// Reference values computed with CPython 3.11
    /// `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        let (q1, q3) = quartiles(&[5.0, 1.0, 3.0]);
        assert_eq!((q1, q3), (1.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread_iqr(&ten), 5.5 / 5.5);
        assert_eq!(spread_iqr(&[42.0]), 0.0);
        assert_eq!(spread_iqr(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }
}
