//! Order statistics of a handful of repetitions: median, quartiles and
//! their spread, computed the way the benchmark contract's checker does
//! (Python's `statistics.median` and `statistics.quantiles(v, n=4)`).

/// Min, quartiles, max and count of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarize `values`; `None` when empty. With a single sample every
    /// statistic is that sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let (&min, &max) = (v.first()?, v.last()?);
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        // The exclusive method: quartile i sits at position i(n+1)/4,
        // between neighbours j-1 and j (j clamped to the data, and the
        // weight taken after clamping, as Python does).
        let quartile = |i: usize| {
            if n < 2 {
                return min;
            }
            let pos = i * (n + 1);
            let j = (pos / 4).clamp(1, n - 1);
            let delta = pos as f64 - 4.0 * j as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Some(Summary {
            n,
            min,
            q1: quartile(1),
            median,
            q3: quartile(3),
            max,
        })
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// The lowest of `values` (0 when empty, so an unmeasured layer reads 0).
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Median of `values` (0 when empty, so an unmeasured layer reads 0).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22], n=4) == [2.0, 7.0, 16.0]
        let s = Summary::of(&[22.0, 1.0, 16.0, 2.0, 11.0, 4.0, 7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.0, 7.0, 16.0));
        assert_eq!((s.n, s.min, s.max), (7, 1.0, 22.0));
        assert!((s.spread() - 2.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&[4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let s = Summary::of(&[10.0, 20.0, 40.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (10.0, 20.0, 40.0));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(Summary::of(&[]), None);
        assert_eq!((median(&[]), fastest(&[])), (0.0, 0.0));
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        let s = Summary::of(&[3.5]).unwrap();
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (3.5, 3.5, 3.5, 3.5, 3.5)
        );
        assert_eq!(s.spread(), 0.0);
    }
}
