//! Minimal CSV rendering for experiment artifacts.
//!
//! Hand-rolled (RFC 4180 quoting) so the workspace needs no serialization
//! dependency; used by the bench binaries to dump per-job records for
//! external plotting.

/// A CSV document under construction.
///
/// # Examples
///
/// ```
/// use venn_metrics::csv::Csv;
///
/// let mut csv = Csv::new(&["job", "jct_ms"]);
/// csv.row(&["0".into(), "1234".into()]);
/// assert_eq!(csv.to_string(), "job,jct_ms\n0,1234\n");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csv {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Csv {
    /// Creates a document with the given column names.
    pub fn new(header: &[&str]) -> Self {
        Csv {
            header: header.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header width.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells.to_vec());
    }

    fn escape(cell: &str) -> String {
        if cell.contains([',', '"', '\n']) {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    }
}

impl std::fmt::Display for Csv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let line = |cells: &[String]| {
            cells
                .iter()
                .map(|c| Self::escape(c))
                .collect::<Vec<_>>()
                .join(",")
        };
        writeln!(f, "{}", line(&self.header))?;
        for row in &self.rows {
            writeln!(f, "{}", line(row))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let mut c = Csv::new(&["a", "b"]);
        c.row(&["1".into(), "2".into()]);
        c.row(&["3".into(), "4".into()]);
        assert_eq!(c.to_string(), "a,b\n1,2\n3,4\n");
        assert_eq!(c.rows.len(), 2);
    }

    #[test]
    fn escapes_commas_quotes_newlines() {
        let mut c = Csv::new(&["x"]);
        c.row(&["a,b".into()]);
        c.row(&["say \"hi\"".into()]);
        c.row(&["line\nbreak".into()]);
        let out = c.to_string();
        assert!(out.contains("\"a,b\""));
        assert!(out.contains("\"say \"\"hi\"\"\""));
        assert!(out.contains("\"line\nbreak\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Csv::new(&["a"]).row(&["1".into(), "2".into()]);
    }

    #[test]
    fn empty_document_is_header_only() {
        let c = Csv::new(&["only"]);
        assert!(c.rows.is_empty());
        assert_eq!(c.to_string(), "only\n");
    }
}
