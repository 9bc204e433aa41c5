//! Simulation outputs.

use venn_core::SimTime;
use venn_metrics::{EnvStats, JctBreakdown, JctRecord};

/// One completed round, logged when `record_rounds` is enabled — the hook
/// the federated-learning experiments (Figs. 4, 9) consume.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundLog {
    /// Index of the job in the workload.
    pub job_idx: usize,
    /// Round number (0-based) within the job.
    pub round: u32,
    /// When the round's request was submitted.
    pub start_ms: SimTime,
    /// When the round reached quorum.
    pub end_ms: SimTime,
    /// Devices that responded in time (population indices).
    pub participants: Vec<usize>,
}

/// Everything a simulation run produces.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Scheduler under test.
    pub scheduler_name: String,
    /// Per-job completion records (index = workload job index).
    pub records: Vec<JctRecord>,
    /// Per-round logs, when enabled.
    pub rounds: Vec<RoundLog>,
    /// Rounds that missed their deadline and retried.
    pub aborted_rounds: u64,
    /// Total device assignments handed out.
    pub assignments: u64,
    /// Assignments that failed (device departed mid-task).
    pub failures: u64,
    /// Total events the kernel dispatched — the numerator of the
    /// events-per-second throughput metric.
    pub events: u64,
    /// High-water mark of the pending-event queue — queue-pressure
    /// telemetry for the benchmark baseline. Since session starts are
    /// streamed (one pending `SessionStart` at a time on the eager arm,
    /// one `CohortWake` per cohort on the split arms) this tracks live
    /// concurrency — in-flight tasks, holds, and repolls — not population
    /// size.
    pub peak_queue_len: u64,
    /// Allocator high-water mark (bytes) over the run, measured by the
    /// `venn-metrics` tracking allocator when the driving binary installs
    /// it ([`venn_metrics::alloc`]); 0 when no tracker is installed.
    /// Machine-dependent telemetry like wall time — deterministic exports
    /// omit it.
    pub peak_bytes: u64,
    /// Environment-dynamics telemetry (`venn-env`): dropouts, forced
    /// offlines, storm aborts, retries, per-tier response histograms.
    /// Stays at the empty default on the env-off arm.
    pub env: EnvStats,
}

impl SimResult {
    /// Aggregated JCT statistics over all jobs.
    pub fn breakdown(&self) -> JctBreakdown {
        let mut b = JctBreakdown::new();
        for r in &self.records {
            b.add(r);
        }
        b
    }

    /// Average JCT in milliseconds over finished jobs.
    pub fn avg_jct_ms(&self) -> f64 {
        self.breakdown().avg_jct_ms()
    }

    /// Fraction of jobs that finished within the horizon.
    pub fn completion_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.is_finished()).count() as f64 / self.records.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_aggregates_records() {
        let mut r1 = JctRecord::new(0);
        r1.finish(100);
        let r2 = JctRecord::new(0); // unfinished
        let res = SimResult {
            scheduler_name: "test".into(),
            records: vec![r1, r2],
            ..SimResult::default()
        };
        assert_eq!(res.breakdown().finished(), 1);
        assert_eq!(res.avg_jct_ms(), 100.0);
        assert_eq!(res.completion_rate(), 0.5);
    }

    #[test]
    fn empty_result_is_safe() {
        let res = SimResult::default();
        assert_eq!(res.completion_rate(), 0.0);
        assert_eq!(res.avg_jct_ms(), 0.0);
    }
}
