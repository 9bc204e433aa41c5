//! Numerically stable streaming mean (Welford's algorithm).

/// Streaming mean accumulator.
///
/// Uses Welford's online update, which is numerically stable for long
/// streams of samples with large offsets — exactly the situation when
/// accumulating millisecond-scale completion times over multi-day simulated
/// horizons.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Welford {
    count: u64,
    mean: f64,
}

impl Welford {
    /// Adds one sample.
    pub(crate) fn push(&mut self, value: f64) {
        self.count += 1;
        self.mean += (value - self.mean) / self.count as f64;
    }

    /// Number of samples observed so far.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the samples; `0.0` when empty.
    pub(crate) fn mean(&self) -> f64 {
        self.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(values: impl IntoIterator<Item = f64>) -> Welford {
        let mut w = Welford::default();
        for v in values {
            w.push(v);
        }
        w
    }

    #[test]
    fn empty_is_zero() {
        let w = Welford::default();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
    }

    #[test]
    fn mean_matches_closed_form() {
        let w = collect([1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(w.count(), 5);
        assert!((w.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn large_offset_is_stable() {
        let base = 1e12;
        let w = collect((0..1000).map(|i| base + (i % 10) as f64));
        assert!((w.mean() - (base + 4.5)).abs() < 1e-3);
    }
}
