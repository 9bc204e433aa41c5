//! (x, y) series rendering for figure-style outputs.

use std::fmt;

/// A named sequence of `(x, y)` points, printed one point per line.
///
/// Bench binaries that regenerate paper *figures* (line plots) print one
/// `Series` per curve; downstream plotting is a cut-and-paste away.
///
/// # Examples
///
/// ```
/// use venn_metrics::Series;
///
/// let mut s = Series::new("accuracy");
/// s.point(0.0, 0.1);
/// s.point(1.0, 0.5);
/// assert_eq!(s.len(), 2);
/// assert!(s.to_string().contains("accuracy"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    name: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series with the given curve name.
    pub fn new(name: &str) -> Self {
        Series {
            name: name.to_string(),
            points: Vec::new(),
        }
    }

    /// Appends one point.
    pub fn point(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Final y value, if any — handy for "final accuracy" style assertions.
    pub fn last_y(&self) -> Option<f64> {
        self.points.last().map(|p| p.1)
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# series: {}", self.name)?;
        for (x, y) in &self.points {
            writeln!(f, "{x:>12.4}  {y:>12.4}")?;
        }
        Ok(())
    }
}

impl Extend<(f64, f64)> for Series {
    fn extend<T: IntoIterator<Item = (f64, f64)>>(&mut self, iter: T) {
        self.points.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_kept_in_order() {
        let mut s = Series::new("c");
        s.point(2.0, 1.0);
        s.point(1.0, 3.0);
        assert_eq!(s.points, [(2.0, 1.0), (1.0, 3.0)]);
    }

    #[test]
    fn last_and_max_y() {
        let mut s = Series::new("c");
        assert_eq!(s.last_y(), None);
        s.extend([(0.0, 1.0), (1.0, 5.0), (2.0, 3.0)]);
        // The last point's y, not the largest one.
        assert_eq!(s.last_y(), Some(3.0));
    }

    #[test]
    fn display_contains_name_and_points() {
        let mut s = Series::new("acc");
        s.point(1.0, 0.5);
        let out = s.to_string();
        assert!(out.contains("# series: acc"));
        assert!(out.contains("0.5000"));
    }

    #[test]
    fn empty_checks() {
        let s = Series::new("e");
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.name, "e");
    }
}
