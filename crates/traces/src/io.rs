//! Plain-text (TSV) workload serialization.
//!
//! Lets experiments be frozen to disk and replayed bit-for-bit across
//! machines without a serialization dependency. One job per line:
//!
//! ```text
//! id  arrival_ms  category  rounds  demand  task_ms
//! ```

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use venn_core::{JobId, SimTime, SpecCategory};

use crate::jobs::JobPlan;
use crate::workload::Workload;

/// Error parsing a workload TSV document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseWorkloadError {
    line: usize,
    reason: String,
}

impl ParseWorkloadError {
    fn new(line: usize, reason: impl Into<String>) -> Self {
        ParseWorkloadError {
            line,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ParseWorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid workload record on line {}: {}",
            self.line, self.reason
        )
    }
}

impl Error for ParseWorkloadError {}

fn category_from_label(label: &str) -> Option<SpecCategory> {
    SpecCategory::ALL
        .iter()
        .copied()
        .find(|c| c.label() == label)
}

/// Renders a workload as TSV (with a `#`-prefixed header line).
pub fn to_tsv(workload: &Workload) -> String {
    let mut out = String::from("#id\tarrival_ms\tcategory\trounds\tdemand\ttask_ms\n");
    for j in &workload.jobs {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\n",
            j.id.as_u64(),
            j.arrival_ms,
            j.category.label(),
            j.rounds,
            j.demand,
            j.task_ms
        ));
    }
    out
}

/// Parses a workload from TSV produced by [`to_tsv`].
///
/// # Errors
///
/// Returns [`ParseWorkloadError`] on malformed lines, unknown categories,
/// non-numeric fields, or a job that breaks [`JobPlan::check`]. Blank
/// lines and `#` comments are skipped.
pub fn from_tsv(text: &str) -> Result<Workload, ParseWorkloadError> {
    let mut jobs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 6 {
            return Err(ParseWorkloadError::new(
                lineno + 1,
                format!("expected 6 fields, got {}", fields.len()),
            ));
        }
        fn num<T: FromStr>(lineno: usize, name: &str, s: &str) -> Result<T, ParseWorkloadError> {
            s.parse()
                .map_err(|_| ParseWorkloadError::new(lineno + 1, format!("bad {name}: {s:?}")))
        }
        let category = category_from_label(fields[2]).ok_or_else(|| {
            ParseWorkloadError::new(lineno + 1, format!("unknown category {:?}", fields[2]))
        })?;
        let job = JobPlan {
            id: JobId::new(num(lineno, "id", fields[0])?),
            arrival_ms: num::<SimTime>(lineno, "arrival_ms", fields[1])?,
            category,
            rounds: num(lineno, "rounds", fields[3])?,
            demand: num(lineno, "demand", fields[4])?,
            task_ms: num(lineno, "task_ms", fields[5])?,
        };
        job.check()
            .map_err(|reason| ParseWorkloadError::new(lineno + 1, reason))?;
        jobs.push(job);
    }
    Ok(Workload { jobs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_preserves_workload() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = Workload::default_scenario(20, &mut rng);
        let text = to_tsv(&w);
        let back = from_tsv(&text).expect("roundtrip parses");
        assert_eq!(w, back);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "# header\n\n0\t100\tGeneral\t2\t5\t60000\n";
        let w = from_tsv(text).unwrap();
        assert_eq!(w.jobs.len(), 1);
        assert_eq!(w.jobs[0].demand, 5);
    }

    #[test]
    fn bad_field_count_reports_line() {
        let err = from_tsv("0\t1\tGeneral\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("expected 6 fields"));
    }

    #[test]
    fn unknown_category_is_rejected() {
        let err = from_tsv("0\t1\tTuring\t2\t5\t1000\n").unwrap_err();
        assert!(err.to_string().contains("unknown category"));
    }

    #[test]
    fn non_numeric_field_is_rejected() {
        let err = from_tsv("0\tsoon\tGeneral\t2\t5\t1000\n").unwrap_err();
        assert!(err.to_string().contains("bad arrival_ms"));
    }

    /// Parses one record whose fields are all valid except what the test
    /// changes, on line 2 (after a header).
    fn parse_line(rounds: u32, demand: u32, task_ms: u64) -> Result<Workload, ParseWorkloadError> {
        from_tsv(&format!(
            "#id\tarrival_ms\tcategory\trounds\tdemand\ttask_ms\n0\t1\tGeneral\t{rounds}\t{demand}\t{task_ms}\n"
        ))
    }

    #[test]
    fn zero_rounds_is_rejected_with_its_line() {
        let err = parse_line(0, 5, 1000).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("at least one round"), "{err}");
    }

    #[test]
    fn zero_demand_is_rejected_with_its_line() {
        let err = parse_line(2, 0, 1000).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(
            err.to_string().contains("at least one participant"),
            "{err}"
        );
    }

    #[test]
    fn zero_task_cost_is_rejected_with_its_line() {
        let err = parse_line(2, 5, 0).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(
            err.to_string().contains("task cost must be positive"),
            "{err}"
        );
        assert!(parse_line(1, 1, 1).is_ok());
    }

    #[test]
    fn all_categories_roundtrip() {
        for cat in SpecCategory::ALL {
            assert_eq!(category_from_label(cat.label()), Some(cat));
        }
    }
}
