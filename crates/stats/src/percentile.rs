//! Exact order statistics.

/// The `p`-th percentile (0–100) of `values` by the nearest-rank method.
/// Returns `None` on an empty slice. Does not require the input to be
/// sorted.
///
/// ```
/// use lossless_stats::percentile;
/// let v: Vec<f64> = (1..=100).map(f64::from).collect();
/// assert_eq!(percentile(&v, 99.0), Some(99.0));
/// assert_eq!(percentile(&[], 50.0), None);
/// ```
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(nearest_rank(&sorted(values), p))
}

/// A sorted copy of `values`. `total_cmp`: NaN sorts last instead of
/// panicking, so exporter inputs with a stray NaN degrade gracefully.
pub(crate) fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `p`-th percentile (0–100) of the non-empty, [`sorted`] `v` by
/// the nearest-rank method.
pub(crate) fn nearest_rank(v: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if p == 0.0 {
        return v[0];
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Arithmetic mean; `None` on an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn known_values() {
        let v: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(mean(&v), Some(50.5));
    }

    #[test]
    fn unsorted_input_is_fine() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 50.0), Some(3.0));
    }

    #[test]
    fn single_element() {
        assert_eq!(percentile(&[7.0], 1.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 0.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 100.0), Some(7.0));
    }

    #[test]
    fn nan_input_does_not_panic() {
        // NaN sorts last under total_cmp; finite percentiles still come
        // from the finite prefix.
        let v = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(percentile(&v, 50.0), Some(2.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
    }

    #[test]
    #[should_panic]
    fn out_of_range_percentile_panics() {
        let _ = percentile(&[1.0], 101.0);
    }
}
