//! Sample summaries and the reading a metric reports.
//!
//! A metric's value is the **median** of its samples. The shared 2-core
//! host has two kinds of excursion: slow phases of seconds (a neighbour's
//! load), and lucky ones in which everything runs a quarter faster for
//! 5-15 s, about a fifth of the time. An estimator at the fast end chases
//! the lucky mode: runs whose window caught enough of it read 0.8x, the
//! others 1.0x, and ten such runs spread by the gap between the modes. The
//! median stays in the majority mode as long as either kind of excursion
//! covers less than half of a metric's samples, which is why every metric's
//! samples are taken passes apart, across the whole run.

/// Quartiles, extremes and count of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Linear-interpolated quantile of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

/// `None` when there are no samples.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    Some(Summary {
        n: sorted.len(),
        min: sorted[0],
        q1: quantile(&sorted, 0.25),
        median: quantile(&sorted, 0.5),
        q3: quantile(&sorted, 0.75),
        max: sorted[sorted.len() - 1],
    })
}

/// The median of `reps` position by position, for reps that did the same
/// work in the same order (stretches of one world's step loop, lines of
/// one session script): an excursion of the host has to cover the same
/// part of most reps to show, not just most of one rep.
pub fn median_each(reps: &[&[f64]]) -> Vec<f64> {
    let len = reps.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..len)
        .map(|k| median(&reps.iter().map(|r| r[k]).collect::<Vec<_>>()))
        .collect()
}

/// One metric as a run reports it: the headline value plus the samples
/// behind it (absent for single exact values).
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub summary: Option<Summary>,
}

impl Reading {
    /// A value with no sample spread (counts, simulated results).
    pub fn exact(value: f64) -> Self {
        Reading {
            value,
            summary: None,
        }
    }

    /// The median of `samples` as the headline, quartiles beside it.
    pub fn of(samples: &[f64]) -> Self {
        let summary = summarize(samples);
        Reading {
            value: summary.as_ref().map_or(0.0, |s| s.median),
            summary,
        }
    }
}
