//! Plain-text table rendering for experiment reports.

use std::fmt;

/// A simple left-labelled ASCII table.
///
/// Every bench binary renders its paper table through this type so outputs
/// share one shape and are easy to diff against `EXPERIMENTS.md`.
///
/// # Examples
///
/// ```
/// use venn_metrics::Table;
///
/// let mut t = Table::new("Table 1", &["FIFO", "SRSF", "Venn"]);
/// t.row("Even", &[1.38, 1.69, 1.87]);
/// let s = t.to_string();
/// assert!(s.contains("Even"));
/// assert!(s.contains("1.87"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of numeric cells, rendered with two decimals and an `x`
    /// suffix-free format.
    ///
    /// # Panics
    ///
    /// Panics if the number of values differs from the number of columns.
    pub fn row(&mut self, label: &str, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match column count"
        );
        self.rows.push((
            label.to_string(),
            values.iter().map(|v| format!("{v:.2}")).collect(),
        ));
    }

    /// Appends a row of pre-formatted string cells.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells differs from the number of columns.
    pub fn row_str(&mut self, label: &str, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match column count"
        );
        self.rows.push((label.to_string(), cells.to_vec()));
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain([5])
            .max()
            .unwrap();
        let col_ws: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                self.rows
                    .iter()
                    .map(|(_, cells)| cells[i].len())
                    .chain([c.len()])
                    .max()
                    .unwrap()
            })
            .collect();

        writeln!(f, "== {} ==", self.title)?;
        write!(f, "{:<label_w$}", "")?;
        for (c, w) in self.columns.iter().zip(&col_ws) {
            write!(f, "  {c:>w$}")?;
        }
        writeln!(f)?;
        let total = label_w + col_ws.iter().map(|w| w + 2).sum::<usize>();
        writeln!(f, "{}", "-".repeat(total))?;
        for (label, cells) in &self.rows {
            write!(f, "{label:<label_w$}")?;
            for (cell, w) in cells.iter().zip(&col_ws) {
                write!(f, "  {cell:>w$}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_title_headers_and_rows() {
        let mut t = Table::new("T", &["A", "B"]);
        t.row("r1", &[1.0, 2.5]);
        t.row("r2", &[3.0, 4.0]);
        let s = t.to_string();
        assert!(s.contains("== T =="));
        assert!(s.contains('A') && s.contains('B'));
        assert!(s.contains("1.00") && s.contains("2.50"));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Table::new("T", &["A"]).row("r", &[1.0, 2.0]);
    }

    #[test]
    fn string_rows_render_verbatim() {
        let mut t = Table::new("T", &["A"]);
        t.row_str("r", &["1.88x".to_string()]);
        assert!(t.to_string().contains("1.88x"));
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new("Empty", &["X"]);
        assert!(t.rows.is_empty());
        assert!(t.to_string().contains("Empty"));
    }

    #[test]
    fn columns_are_aligned() {
        let mut t = Table::new("T", &["Col"]);
        t.row("short", &[1.0]);
        t.row("a-much-longer-label", &[2.0]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().filter(|l| l.contains('.')).collect();
        // All numeric cells end at the same column.
        let ends: Vec<usize> = lines.iter().map(|l| l.trim_end().len()).collect();
        assert!(ends.windows(2).all(|w| w[0] == w[1]));
    }
}
