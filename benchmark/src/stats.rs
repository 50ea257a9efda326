//! The statistics the benchmark reports: medians, quartiles, spread, and the
//! highest percentile that still has ten samples beyond it.

/// Sorted copy of `values` (NaNs last; timings never produce them).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an already sorted slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of `values` (NaN for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

/// First and third quartile by the method Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive: positions
/// `(n + 1) / 4` and `3 (n + 1) / 4`, clamped to the sample), so a spread
/// computed here matches the one the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |k: usize| {
        // statistics.quantiles: j = k * (n + 1) / 4 clamped to [1, n - 1],
        // delta = k * (n + 1) - j * 4, result interpolates v[j-1]..v[j].
        let m = n + 1;
        let j = (k * m / 4).clamp(1, n - 1);
        let delta = (k * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median — the driver's
/// steadiness measure for one end-to-end metric.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        f64::NAN
    } else {
        ((q3 - q1) / m).abs()
    }
}

/// p90 of `values`, and whether ten samples lie beyond it: a tail
/// percentile is only reported as such from a hundred timings on
/// (choosing-metrics §1).
pub fn p90(values: &[f64]) -> (f64, bool) {
    (quantile(values, 0.90), values.len() >= 100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!(
            (q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12,
            "{q1} {q3}"
        );
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5] but the
        // index clamp keeps j in [1, n-1]: (10*(4-3)+20*3)/4... check both ends.
        let (q1, q3) = quartiles(&[10.0, 20.0]);
        assert_eq!((q1, q3), (7.5, 22.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert!(!p90(&[1.0; 99]).1);
        assert!(p90(&[1.0; 100]).1);
    }

    #[test]
    fn p90_interpolates() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert!((p90(&v).0 - 90.0).abs() < 1e-12);
    }
}
