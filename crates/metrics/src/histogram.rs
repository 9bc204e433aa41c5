//! Fixed-width histogram for distribution sketches.

/// A fixed-width binned histogram over a closed range.
///
/// Values outside the range are clamped into the first/last bin so totals are
/// conserved — useful when sketching heavy-tailed response-time
/// distributions.
///
/// # Examples
///
/// ```
/// use venn_metrics::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// h.record(1.0);
/// h.record(9.5);
/// assert_eq!(h.counts()[0], 1);
/// assert_eq!(h.counts()[4], 1);
/// assert_eq!(h.total(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi]` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
        }
    }

    /// Rebuilds a histogram from its raw parts (snapshot restore).
    ///
    /// # Panics
    ///
    /// Panics under the same invalid-shape conditions as [`Histogram::new`].
    pub fn from_parts(lo: f64, hi: f64, counts: Vec<u64>) -> Self {
        assert!(!counts.is_empty(), "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram { lo, hi, counts }
    }

    /// The `(lo, hi)` value range the bins cover.
    pub fn bounds(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Records one value, clamping to the histogram range.
    pub fn record(&mut self, value: f64) {
        let bins = self.counts.len();
        let width = (self.hi - self.lo) / bins as f64;
        let idx = ((value - self.lo) / width).floor();
        let idx = idx.clamp(0.0, (bins - 1) as f64) as usize;
        self.counts[idx] += 1;
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of recorded values.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Midpoint of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub(crate) fn bin_center(&self, i: usize) -> f64 {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        assert!(i < self.counts.len(), "bin index out of range");
        self.lo + width * (i as f64 + 0.5)
    }

    /// Renders a one-line-per-bin sparkbar sketch.
    pub fn render(&self) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, c) in self.counts.iter().enumerate() {
            let bar = "#".repeat((c * 40 / max) as usize);
            out.push_str(&format!(
                "{:>10.3} | {:<40} {}\n",
                self.bin_center(i),
                bar,
                c
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_land_in_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.5);
        h.record(5.5);
        h.record(9.99);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[5], 1);
        assert_eq!(h.counts()[9], 1);
    }

    #[test]
    fn out_of_range_clamps() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-5.0);
        h.record(5.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[3], 1);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn bin_centers_are_midpoints() {
        let h = Histogram::new(0.0, 4.0, 4);
        assert_eq!(h.bin_center(0), 0.5);
        assert_eq!(h.bin_center(3), 3.5);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn render_contains_counts() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.record(0.1);
        let s = h.render();
        assert!(s.contains('#'));
    }
}
