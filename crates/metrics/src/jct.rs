//! Job-completion-time records and aggregate breakdowns.
//!
//! The paper decomposes each round of a CL job into *scheduling delay* (time
//! to acquire the needed devices) and *response collection time* (time until
//! the quorum of responses arrives) — Figure 1. These types accumulate that
//! decomposition per job and across jobs.

use crate::welford::Welford;

/// Completion-time accounting for one job.
///
/// Times are in simulated milliseconds. A record is complete once
/// [`JctRecord::finish`] has been called.
#[derive(Debug, Clone, PartialEq)]
pub struct JctRecord {
    /// Arrival (submission) time of the job.
    pub arrival_ms: u64,
    /// Completion time of the job's last round, if finished.
    pub finish_ms: Option<u64>,
    /// Total time spent waiting for devices across all rounds.
    pub sched_delay_ms: u64,
    /// Total time spent collecting responses across all rounds.
    pub response_ms: u64,
    /// Rounds that completed successfully.
    pub rounds_completed: u32,
    /// Rounds that aborted (quorum missed the deadline).
    pub rounds_aborted: u32,
}

impl JctRecord {
    /// Creates a record for a job arriving at `arrival_ms`.
    pub fn new(arrival_ms: u64) -> Self {
        JctRecord {
            arrival_ms,
            finish_ms: None,
            sched_delay_ms: 0,
            response_ms: 0,
            rounds_completed: 0,
            rounds_aborted: 0,
        }
    }

    /// Marks the job finished at `finish_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `finish_ms` precedes the arrival time.
    pub fn finish(&mut self, finish_ms: u64) {
        assert!(finish_ms >= self.arrival_ms, "finish before arrival");
        self.finish_ms = Some(finish_ms);
    }

    /// Job completion time in milliseconds, if the job finished.
    pub fn jct_ms(&self) -> Option<u64> {
        self.finish_ms.map(|f| f - self.arrival_ms)
    }

    /// Whether the job has finished.
    pub fn is_finished(&self) -> bool {
        self.finish_ms.is_some()
    }
}

/// Aggregate JCT statistics over a set of jobs.
///
/// # Examples
///
/// ```
/// use venn_metrics::{JctBreakdown, JctRecord};
///
/// let mut r = JctRecord::new(0);
/// r.sched_delay_ms = 30;
/// r.response_ms = 70;
/// r.finish(100);
///
/// let mut b = JctBreakdown::new();
/// b.add(&r);
/// assert_eq!(b.avg_jct_ms(), 100.0);
/// assert_eq!(b.avg_sched_delay_ms(), 30.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JctBreakdown {
    jct: Welford,
    sched: Welford,
    resp: Welford,
    unfinished: u64,
}

impl JctBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one job record. Unfinished jobs are counted but contribute no
    /// completion time.
    pub fn add(&mut self, record: &JctRecord) {
        match record.jct_ms() {
            Some(jct) => {
                self.jct.push(jct as f64);
                self.sched.push(record.sched_delay_ms as f64);
                self.resp.push(record.response_ms as f64);
            }
            None => self.unfinished += 1,
        }
    }

    /// Number of finished jobs.
    pub fn finished(&self) -> u64 {
        self.jct.count()
    }

    /// Number of jobs that never finished within the simulated horizon.
    pub fn unfinished(&self) -> u64 {
        self.unfinished
    }

    /// Average JCT in milliseconds over finished jobs.
    pub fn avg_jct_ms(&self) -> f64 {
        self.jct.mean()
    }

    /// Average total scheduling delay in milliseconds.
    pub fn avg_sched_delay_ms(&self) -> f64 {
        self.sched.mean()
    }

    /// Average total response collection time in milliseconds.
    pub fn avg_response_ms(&self) -> f64 {
        self.resp.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(arrival: u64, finish: u64, sched: u64, resp: u64) -> JctRecord {
        let mut r = JctRecord::new(arrival);
        r.sched_delay_ms = sched;
        r.response_ms = resp;
        r.finish(finish);
        r
    }

    #[test]
    fn jct_is_finish_minus_arrival() {
        let r = rec(100, 250, 50, 100);
        assert_eq!(r.jct_ms(), Some(150));
        assert!(r.is_finished());
    }

    #[test]
    fn unfinished_has_no_jct() {
        let r = JctRecord::new(5);
        assert_eq!(r.jct_ms(), None);
        assert!(!r.is_finished());
    }

    #[test]
    #[should_panic(expected = "finish before arrival")]
    fn finish_before_arrival_panics() {
        JctRecord::new(10).finish(5);
    }

    #[test]
    fn breakdown_averages() {
        let mut b = JctBreakdown::new();
        b.add(&rec(0, 100, 30, 70));
        b.add(&rec(0, 300, 100, 200));
        assert_eq!(b.finished(), 2);
        assert_eq!(b.avg_jct_ms(), 200.0);
        assert_eq!(b.avg_sched_delay_ms(), 65.0);
        assert_eq!(b.avg_response_ms(), 135.0);
    }

    #[test]
    fn unfinished_jobs_tracked_separately() {
        let mut b = JctBreakdown::new();
        b.add(&JctRecord::new(0));
        b.add(&rec(0, 10, 5, 5));
        assert_eq!(b.unfinished(), 1);
        assert_eq!(b.finished(), 1);
        assert_eq!(b.avg_jct_ms(), 10.0);
    }
}
