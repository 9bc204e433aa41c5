//! Simulation outputs.

use venn_core::{SimTime, SnapError, SnapReader, SnapWriter, Snapshot};
use venn_metrics::{EnvStats, Histogram, JctBreakdown, JctRecord};

/// One completed round, logged when `record_rounds` is enabled — the hook
/// the federated-learning experiments (Figs. 4, 9) consume.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundLog {
    /// Index of the job in the workload.
    pub job_idx: usize,
    /// Round number (0-based) within the job.
    pub round: u32,
    /// When the round's request was submitted.
    pub(crate) start_ms: SimTime,
    /// When the round reached quorum.
    pub end_ms: SimTime,
    /// Devices that responded in time (population indices).
    pub participants: Vec<usize>,
}

impl Snapshot for RoundLog {
    fn encode(&self, w: &mut SnapWriter) {
        w.usize(self.job_idx);
        w.u32(self.round);
        w.u64(self.start_ms);
        w.u64(self.end_ms);
        w.seq(&self.participants, |w, &d| w.usize(d));
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(RoundLog {
            job_idx: r.usize()?,
            round: r.u32()?,
            start_ms: r.u64()?,
            end_ms: r.u64()?,
            participants: r.seq(|r| r.usize())?,
        })
    }
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

    /// Encodes the mid-run accumulators — a checkpoint's share of the
    /// result. `records` is empty until the run finishes and
    /// `peak_queue_len` is derived then from the queue's own high-water
    /// mark, so neither is written.
    pub(crate) fn encode_progress(&self, w: &mut SnapWriter) {
        w.str(&self.scheduler_name);
        w.u64(self.events);
        w.u64(self.aborted_rounds);
        w.u64(self.assignments);
        w.u64(self.failures);
        w.u64(self.peak_bytes);
        encode_env_stats(&self.env, w);
        w.seq(&self.rounds, |w, log| log.encode(w));
    }

    /// Restores [`encode_progress`](Self::encode_progress)'s
    /// accumulators. The stored scheduler name is read and dropped: the
    /// result keeps the restoring world's own, and
    /// [`Scheduler::load_state`](venn_core::Scheduler::load_state) is what
    /// refuses a snapshot taken under another scheduler.
    pub(crate) fn restore_progress(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.str()?;
        self.events = r.u64()?;
        self.aborted_rounds = r.u64()?;
        self.assignments = r.u64()?;
        self.failures = r.u64()?;
        self.peak_bytes = r.u64()?;
        self.env = decode_env_stats(r)?;
        self.rounds = r.seq(RoundLog::decode)?;
        Ok(())
    }
}

fn encode_env_stats(s: &EnvStats, w: &mut SnapWriter) {
    w.u64(s.dropouts);
    w.u64(s.forced_offline);
    w.u64(s.storm_aborts);
    w.u64(s.retries);
    w.seq(&s.tier_response_ms, |w, h| {
        let (lo, hi) = h.bounds();
        w.f64(lo);
        w.f64(hi);
        w.seq(h.counts(), |w, &c| w.u64(c));
    });
}

fn decode_env_stats(r: &mut SnapReader<'_>) -> Result<EnvStats, SnapError> {
    Ok(EnvStats {
        dropouts: r.u64()?,
        forced_offline: r.u64()?,
        storm_aborts: r.u64()?,
        retries: r.u64()?,
        tier_response_ms: r.seq(|r| {
            let lo = r.f64()?;
            let hi = r.f64()?;
            let counts = r.seq(|r| r.u64())?;
            // `Histogram::from_parts` panics on an invalid shape; corrupt
            // input must surface as an error instead. NaN bounds are not
            // Greater, so they are rejected here too.
            let ordered = hi.partial_cmp(&lo) == Some(std::cmp::Ordering::Greater);
            if counts.is_empty() || !ordered {
                return Err(SnapError::Corrupt(format!(
                    "histogram shape lo={lo} hi={hi} bins={}",
                    counts.len()
                )));
            }
            Ok(Histogram::from_parts(lo, hi, counts))
        })?,
    })
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
