//! Pluggable simulation observers.
//!
//! Metrics collection is no longer hard-wired into the event loop: the
//! [`World`](crate::world::World) kernel reports lifecycle moments to any
//! number of [`SimObserver`]s, so new metrics (per-event traces, round
//! logs, custom progress counters) attach without touching the engine.
//! Every hook has an empty default body — observers implement only what
//! they care about, and a run with no observers pays nothing but an empty
//! slice iteration.

use venn_core::SimTime;

use crate::event::EventKind;
use crate::result::{RoundLog, SimResult};

/// Hooks into the simulation lifecycle.
///
/// All hooks default to no-ops. Hook order within one moment follows the
/// observer slice order, and observers run strictly after the state
/// transition they describe, so they can never perturb the simulation —
/// determinism is unaffected by observer composition.
pub trait SimObserver {
    /// Fires before every event is dispatched.
    fn on_event(&mut self, _now: SimTime, _kind: &EventKind) {}

    /// Fires when the scheduler assigns `device` to `job_idx`.
    fn on_assignment(&mut self, _now: SimTime, _job_idx: usize, _device: usize) {}

    /// Fires when a job's round leaves allocation and starts computing.
    fn on_round_start(&mut self, _now: SimTime, _job_idx: usize, _round: u32) {}

    /// Fires when a round reaches quorum; `log` carries the participants
    /// and timing.
    fn on_round_complete(&mut self, _now: SimTime, _log: &RoundLog) {}

    /// Fires when a round misses its deadline and aborts.
    fn on_round_abort(&mut self, _now: SimTime, _job_idx: usize, _round: u32) {}

    /// Fires when a job completes its final round.
    fn on_job_finish(&mut self, _now: SimTime, _job_idx: usize) {}

    /// Fires once, after the event loop drains, with the finished result.
    fn on_run_end(&mut self, _result: &SimResult) {}
}

/// Counts dispatched events by kind — the observer behind the
/// events-per-second throughput reporting.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EventTrace {
    /// Total events dispatched.
    pub total: u64,
    /// `JobArrival` events.
    pub job_arrivals: u64,
    /// `SessionStart` events.
    pub session_starts: u64,
    /// `EnvDisturbance` events (always 0 on the env-off arm).
    pub(crate) env_disturbances: u64,
    /// `CheckIn` events.
    pub check_ins: u64,
    /// `HoldExpire` events.
    pub(crate) hold_expires: u64,
    /// `Response` events.
    pub responses: u64,
    /// `AssignFailure` events.
    pub(crate) assign_failures: u64,
    /// `RoundDeadline` events.
    pub(crate) round_deadlines: u64,
    /// `RoundStart` events.
    pub(crate) round_starts: u64,
    /// `CohortWake` events (always 0 on the eager arm).
    pub(crate) cohort_wakes: u64,
}

impl SimObserver for EventTrace {
    fn on_event(&mut self, _now: SimTime, kind: &EventKind) {
        self.total += 1;
        match kind {
            EventKind::JobArrival { .. } => self.job_arrivals += 1,
            EventKind::SessionStart { .. } => self.session_starts += 1,
            EventKind::EnvDisturbance { .. } => self.env_disturbances += 1,
            EventKind::CheckIn { .. } => self.check_ins += 1,
            EventKind::HoldExpire { .. } => self.hold_expires += 1,
            EventKind::Response { .. } => self.responses += 1,
            EventKind::AssignFailure { .. } => self.assign_failures += 1,
            EventKind::RoundDeadline { .. } => self.round_deadlines += 1,
            EventKind::RoundStart { .. } => self.round_starts += 1,
            EventKind::CohortWake { .. } => self.cohort_wakes += 1,
        }
    }
}

/// Collects every completed round's [`RoundLog`], independent of the
/// `record_rounds` config flag (the FL experiments read
/// `SimResult::rounds`, which that flag fills instead).
#[derive(Debug, Default)]
pub struct RoundRecorder {
    /// Completed rounds in completion order.
    pub rounds: Vec<RoundLog>,
}

impl SimObserver for RoundRecorder {
    fn on_round_complete(&mut self, _now: SimTime, log: &RoundLog) {
        self.rounds.push(log.clone());
    }
}

/// Records every assignment the scheduler makes, in decision order.
///
/// The assignment stream is the scheduler's complete observable output:
/// two schedulers that produce equal streams on the same environment are
/// behaviorally identical. The differential suites in `tests/` (gating,
/// storage modes, crash/resume) compare these streams byte for byte.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct AssignmentLog {
    /// `(now, job_idx, device)` per assignment, in decision order.
    pub(crate) assignments: Vec<(SimTime, usize, usize)>,
}

impl SimObserver for AssignmentLog {
    fn on_assignment(&mut self, now: SimTime, job_idx: usize, device: usize) {
        self.assignments.push((now, job_idx, device));
    }
}

/// Records job completion order and abort counts — a cheap progress view
/// for long sweeps.
#[derive(Debug, Default)]
pub struct CompletionLog {
    /// `(finish_ms, job_idx)` in completion order.
    pub finished: Vec<(SimTime, usize)>,
    /// Total aborted rounds observed.
    pub aborts: u64,
}

impl SimObserver for CompletionLog {
    fn on_round_abort(&mut self, _now: SimTime, _job_idx: usize, _round: u32) {
        self.aborts += 1;
    }

    fn on_job_finish(&mut self, now: SimTime, job_idx: usize) {
        self.finished.push((now, job_idx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_trace_counts_by_kind() {
        let mut t = EventTrace::default();
        t.on_event(0, &EventKind::CheckIn { device: 1 });
        t.on_event(1, &EventKind::CheckIn { device: 2 });
        t.on_event(2, &EventKind::RoundStart { job_idx: 0 });
        assert_eq!(t.total, 3);
        assert_eq!(t.check_ins, 2);
        assert_eq!(t.round_starts, 1);
        assert_eq!(t.responses, 0);
    }

    #[test]
    fn round_recorder_clones_logs() {
        let mut r = RoundRecorder::default();
        let log = RoundLog {
            job_idx: 3,
            round: 1,
            start_ms: 10,
            end_ms: 20,
            participants: vec![4, 5],
        };
        r.on_round_complete(20, &log);
        assert_eq!(r.rounds, vec![log]);
    }

    #[test]
    fn assignment_log_preserves_decision_order() {
        let mut log = AssignmentLog::default();
        log.on_assignment(10, 2, 7);
        log.on_assignment(10, 2, 8);
        log.on_assignment(15, 0, 7);
        assert_eq!(log.assignments, vec![(10, 2, 7), (10, 2, 8), (15, 0, 7)]);
    }

    #[test]
    fn completion_log_orders_finishes() {
        let mut c = CompletionLog::default();
        c.on_round_abort(5, 0, 0);
        c.on_job_finish(10, 2);
        c.on_job_finish(15, 0);
        assert_eq!(c.aborts, 1);
        assert_eq!(c.finished, vec![(10, 2), (15, 0)]);
    }

    #[test]
    fn default_hooks_are_noops() {
        struct Nothing;
        impl SimObserver for Nothing {}
        let mut n = Nothing;
        n.on_event(0, &EventKind::CheckIn { device: 0 });
        n.on_run_end(&SimResult::default());
    }
}
