//! Sample buffers with exact percentile queries.

/// A buffer of `f64` samples supporting exact percentiles.
///
/// Percentiles use linear interpolation between closest ranks (the same
/// convention as NumPy's default), which is what the paper's percentile
/// breakdowns (Table 2) assume.
///
/// # Examples
///
/// ```
/// use venn_metrics::Samples;
///
/// let mut s: Samples = [10.0, 20.0, 30.0, 40.0].into_iter().collect();
/// assert_eq!(s.percentile(0.0), 10.0);
/// assert_eq!(s.percentile(100.0), 40.0);
/// assert_eq!(s.percentile(50.0), 25.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty sample buffer.
    pub fn new() -> Self {
        Samples {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one sample.
    ///
    /// Non-finite values are ignored so a single failed measurement cannot
    /// poison a report.
    pub fn push(&mut self, value: f64) {
        if value.is_finite() {
            self.values.push(value);
            self.sorted = false;
        }
    }

    /// Whether the buffer holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Exact percentile `p` in `[0, 100]` with linear interpolation.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or the buffer is empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        assert!(!self.values.is_empty(), "percentile of empty sample set");
        self.ensure_sorted();
        let n = self.values.len();
        if n == 1 {
            return self.values[0];
        }
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.values[lo] * (1.0 - frac) + self.values[hi] * frac
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
            self.sorted = true;
        }
    }
}

impl Extend<f64> for Samples {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Samples::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let mut s: Samples = [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().collect();
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(25.0), 2.0);
        assert_eq!(s.percentile(50.0), 3.0);
        assert_eq!(s.percentile(75.0), 4.0);
        assert_eq!(s.percentile(100.0), 5.0);
        assert_eq!(s.percentile(10.0), 1.4);
    }

    #[test]
    fn single_element_percentile() {
        let mut s: Samples = [7.0].into_iter().collect();
        assert_eq!(s.percentile(0.0), 7.0);
        assert_eq!(s.percentile(99.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "percentile of empty")]
    fn empty_percentile_panics() {
        Samples::new().percentile(50.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_percentile_panics() {
        let mut s: Samples = [1.0].into_iter().collect();
        s.percentile(101.0);
    }

    #[test]
    fn non_finite_samples_dropped() {
        let mut s = Samples::new();
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(1.0);
        assert_eq!(s.values, [1.0]);
        assert_eq!(s.mean(), 1.0);
    }

    #[test]
    fn push_after_percentile_resorts() {
        let mut s: Samples = [3.0, 1.0].into_iter().collect();
        assert_eq!(s.percentile(50.0), 2.0);
        s.push(100.0);
        assert_eq!(s.percentile(50.0), 3.0);
    }
}
