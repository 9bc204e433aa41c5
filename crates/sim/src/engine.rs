//! The simulation driver: wires traces, jobs, and a scheduler together.
//!
//! ## Round lifecycle (paper Fig. 1)
//!
//! 1. **Allocation / scheduling delay** — the job submits a request; each
//!    checked-in device the scheduler assigns is *held* (connected, idle).
//!    Held devices whose availability session ends are released and their
//!    demand returned. There is no deadline in this phase: time spent here
//!    *is* the scheduling delay the paper measures.
//! 2. **Round start** — when the full demand is held, the request leaves
//!    the scheduler, every held device starts computing, and the round
//!    deadline (5–15 min by demand) starts ticking.
//! 3. **Response collection** — the round succeeds when ≥ `quorum` of the
//!    participants report back before the deadline; otherwise it aborts,
//!    backs off briefly, and retries (devices consumed are not refunded —
//!    aborted work is wasted, as in production).
//!
//! The lifecycle itself is implemented by the [`World`] state machine
//! (`world.rs`), which owns the [`DevicePool`](crate::DevicePool),
//! [`JobTable`](crate::JobTable), and event queue and handles each
//! [`EventKind`](crate::event::EventKind) in a dedicated method.
//! [`Simulation`] is the thin front door: construct, validate, run —
//! optionally with [`SimObserver`]s attached.

use venn_core::Scheduler;
use venn_traces::Workload;

use crate::config::SimConfig;
use crate::observer::SimObserver;
use crate::result::SimResult;
use crate::world::World;

/// One simulation run. Construct with a config, then [`Simulation::run`].
#[derive(Debug)]
pub struct Simulation {
    config: SimConfig,
}

impl Simulation {
    /// Creates a simulation.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`SimConfig::check`]) or
    /// its environment is.
    pub fn new(config: SimConfig) -> Self {
        config.validate();
        Simulation { config }
    }

    /// Runs `workload` under `scheduler` and returns the results.
    ///
    /// The run is deterministic given (`config.seed`, workload, scheduler
    /// state): the same inputs produce identical outputs.
    pub fn run(&self, workload: &Workload, scheduler: &mut dyn Scheduler) -> SimResult {
        self.run_observed(workload, scheduler, &mut [])
    }

    /// Like [`Simulation::run`], with [`SimObserver`]s hooked into the
    /// event loop. Observers see every lifecycle moment but cannot perturb
    /// the simulation: results are byte-identical with or without them.
    pub fn run_observed(
        &self,
        workload: &Workload,
        scheduler: &mut dyn Scheduler,
        observers: &mut [&mut dyn SimObserver],
    ) -> SimResult {
        World::new(self.config, workload, scheduler.name()).run(scheduler, observers)
    }

    /// Builds the initial [`World`] without running it — for callers that
    /// want to drive the event loop step by step.
    pub fn world(&self, workload: &Workload, scheduler_name: &str) -> World {
        World::new(self.config, workload, scheduler_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use venn_core::{JobId, SimTime, SpecCategory};
    use venn_traces::{JobDemandModel, JobPlan, Workload, WorkloadKind};

    use crate::observer::{CompletionLog, EventTrace, RoundRecorder};

    fn tiny_workload(n: usize, demand: u32, rounds: u32) -> Workload {
        let jobs = (0..n)
            .map(|i| JobPlan {
                id: JobId::new(i as u64),
                arrival_ms: 1_000 * i as SimTime,
                category: SpecCategory::General,
                rounds,
                demand,
                task_ms: 30_000,
            })
            .collect();
        Workload { jobs }
    }

    fn run_fifo(workload: &Workload, config: SimConfig) -> SimResult {
        let mut sched = venn_baselines::BaselineScheduler::fifo();
        Simulation::new(config).run(workload, &mut sched)
    }

    #[test]
    fn small_jobs_finish() {
        let w = tiny_workload(3, 5, 2);
        let r = run_fifo(&w, SimConfig::small());
        assert_eq!(r.records.len(), 3);
        assert!(
            r.completion_rate() > 0.99,
            "tiny jobs must all finish: {:?}",
            r.records
        );
        for rec in &r.records {
            assert_eq!(rec.rounds_completed, 2);
            assert!(rec.jct_ms().unwrap() > 0);
        }
    }

    #[test]
    #[should_panic(expected = "workload job 1: job needs at least one participant per round")]
    fn a_job_the_kernel_cannot_run_panics_at_construction_naming_it() {
        let mut w = tiny_workload(2, 5, 2);
        w.jobs[1].demand = 0;
        World::new(SimConfig::small(), &w, "fifo");
    }

    #[test]
    fn runs_are_deterministic() {
        let w = tiny_workload(4, 8, 3);
        let a = run_fifo(&w, SimConfig::small());
        let b = run_fifo(&w, SimConfig::small());
        assert_eq!(a.records, b.records);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.aborted_rounds, b.aborted_rounds);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn different_seeds_differ() {
        let w = tiny_workload(4, 8, 3);
        let a = run_fifo(&w, SimConfig::small());
        let b = run_fifo(
            &w,
            SimConfig {
                seed: 1234,
                ..SimConfig::small()
            },
        );
        assert_ne!(
            a.records, b.records,
            "environment seed must affect outcomes"
        );
    }

    #[test]
    fn infeasible_demand_never_finishes() {
        // Demand larger than the whole population can never be fully held.
        let w = tiny_workload(1, 5_000, 1);
        let r = run_fifo(
            &w,
            SimConfig {
                population: 50,
                days: 1,
                ..SimConfig::small()
            },
        );
        assert_eq!(r.completion_rate(), 0.0);
        // With the Fig. 1 lifecycle the job waits in allocation (growing
        // scheduling delay) rather than abort-looping.
        assert_eq!(r.records[0].rounds_completed, 0);
    }

    #[test]
    fn sched_delay_and_response_are_recorded() {
        let w = tiny_workload(2, 10, 2);
        let r = run_fifo(&w, SimConfig::small());
        for rec in r.records.iter().filter(|r| r.is_finished()) {
            assert!(rec.response_ms > 0, "responses take time");
            let jct = rec.jct_ms().unwrap();
            assert!(rec.sched_delay_ms + rec.response_ms <= jct);
        }
    }

    #[test]
    fn round_logs_capture_participants() {
        let w = tiny_workload(1, 5, 2);
        let mut sched = venn_baselines::BaselineScheduler::fifo();
        let config = SimConfig {
            record_rounds: true,
            ..SimConfig::small()
        };
        let r = Simulation::new(config).run(&w, &mut sched);
        assert_eq!(r.rounds.len(), 2);
        for log in &r.rounds {
            assert!(log.participants.len() >= 4); // quorum of 5 = 4
            assert!(log.end_ms > log.start_ms);
        }
    }

    #[test]
    fn venn_scheduler_runs_end_to_end() {
        let w = tiny_workload(3, 5, 2);
        let mut sched = venn_core::VennScheduler::new(venn_core::VennConfig::default());
        let r = Simulation::new(SimConfig::small()).run(&w, &mut sched);
        assert!(r.completion_rate() > 0.99, "{:?}", r.records);
        assert_eq!(r.scheduler_name, "venn");
    }

    #[test]
    fn contended_workload_produces_scheduling_delay() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = Workload::generate(
            WorkloadKind::Even,
            None,
            8,
            &JobDemandModel {
                demand_mean: 30.0,
                demand_max: 60,
                rounds_mean: 3.0,
                rounds_max: 5,
                ..JobDemandModel::default()
            },
            60_000.0, // rapid arrivals → contention
            &mut rng,
        );
        let r = run_fifo(
            &w,
            SimConfig {
                population: 800,
                days: 4,
                ..SimConfig::small()
            },
        );
        let b = r.breakdown();
        assert!(b.finished() > 0);
        assert!(
            b.avg_sched_delay_ms() > 0.0,
            "contention must show up as scheduling delay"
        );
    }

    #[test]
    fn async_mode_completes_rounds() {
        let w = tiny_workload(3, 8, 3);
        let r = run_fifo(
            &w,
            SimConfig {
                async_mode: true,
                ..SimConfig::small()
            },
        );
        assert!(r.completion_rate() > 0.99, "{:?}", r.records);
        for rec in &r.records {
            assert_eq!(rec.rounds_completed, 3);
        }
    }

    #[test]
    fn async_mode_is_never_slower_to_first_quorum() {
        // With the same environment, async rounds can complete on quorum
        // before full allocation, so per-round latency is at most sync's.
        let w = tiny_workload(2, 10, 2);
        let sync = run_fifo(&w, SimConfig::small());
        let asy = run_fifo(
            &w,
            SimConfig {
                async_mode: true,
                ..SimConfig::small()
            },
        );
        assert!(asy.completion_rate() > 0.99);
        assert!(sync.completion_rate() > 0.99);
        // Both complete; async JCT is typically smaller but at minimum the
        // run must be well-formed. Compare to within 2x to bound noise.
        let a = asy.avg_jct_ms();
        let s = sync.avg_jct_ms();
        assert!(a <= s * 2.0, "async {a} vs sync {s}");
    }

    #[test]
    fn overcommit_requests_extra_devices() {
        let w = tiny_workload(1, 10, 1);
        let base = run_fifo(&w, SimConfig::small());
        let over = run_fifo(
            &w,
            SimConfig {
                overcommit: 0.3,
                ..SimConfig::small()
            },
        );
        assert!(
            over.assignments > base.assignments,
            "overcommit must hold more devices: {} vs {}",
            over.assignments,
            base.assignments
        );
        assert!(over.completion_rate() > 0.99);
    }

    /// FIFO that keeps the trait's default `has_open_demand` (`true`):
    /// the un-gated reference arm.
    struct Ungated(venn_baselines::BaselineScheduler);

    impl Scheduler for Ungated {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn submit(&mut self, request: venn_core::Request, now: SimTime) {
            self.0.submit(request, now)
        }
        fn withdraw(&mut self, job: JobId, now: SimTime) {
            self.0.withdraw(job, now)
        }
        fn add_demand(&mut self, job: JobId, count: u32, now: SimTime) {
            self.0.add_demand(job, count, now)
        }
        fn assign(&mut self, device: &venn_core::DeviceInfo, now: SimTime) -> Option<JobId> {
            self.0.assign(device, now)
        }
        fn pending_demand(&self, job: JobId) -> Option<u32> {
            self.0.pending_demand(job)
        }
    }

    /// The most polls parked after any step of a small run.
    fn peak_parked(workload: &Workload, scheduler: &mut dyn Scheduler) -> usize {
        let mut world = World::new(SimConfig::small(), workload, scheduler.name());
        let mut peak = world.parked_poll_count();
        while world.step(scheduler, &mut []) {
            peak = peak.max(world.parked_poll_count());
        }
        peak
    }

    #[test]
    fn only_a_scheduler_reporting_no_open_demand_parks_pollers() {
        let w = tiny_workload(3, 5, 2);
        let fifo = venn_baselines::BaselineScheduler::fifo;
        assert_eq!(peak_parked(&w, &mut Ungated(fifo())), 0);
        assert!(peak_parked(&w, &mut fifo()) > 0, "FIFO reports idle gaps");
    }

    #[test]
    fn straggler_env_stretches_responses_and_fills_tier_histograms() {
        let w = tiny_workload(3, 5, 2);
        let off = run_fifo(&w, SimConfig::small());
        let hard = run_fifo(
            &w,
            SimConfig {
                env: venn_env::EnvPreset::StragglerHeavy.config(),
                ..SimConfig::small()
            },
        );
        // The straggler preset has no churn, so the check-in stream is
        // unchanged; every response is stretched by its tier multiplier,
        // so cumulative response time can only grow.
        let total = |r: &SimResult| r.records.iter().map(|rec| rec.response_ms).sum::<u64>();
        assert!(
            total(&hard) >= total(&off),
            "stretched responses must not get faster: {} vs {}",
            total(&hard),
            total(&off)
        );
        assert_eq!(hard.env.tier_response_ms.len(), 4);
        let recorded: u64 = hard.env.tier_response_ms.iter().map(|h| h.total()).sum();
        assert!(
            recorded > 0,
            "counted responses must land in tier histograms"
        );
        assert!(off.env.is_empty(), "env-off runs carry no env telemetry");
    }

    #[test]
    fn mass_dropout_env_forces_devices_offline_deterministically() {
        let w = tiny_workload(4, 8, 3);
        let config = SimConfig {
            env: venn_env::EnvPreset::MassDropout.config(),
            ..SimConfig::small()
        };
        let a = run_fifo(&w, config);
        let b = run_fifo(&w, config);
        assert_eq!(a.records, b.records, "env runs must replay per seed");
        assert_eq!(a.env, b.env);
        assert!(
            a.env.forced_offline > 0,
            "two half-population offline waves must claim victims"
        );
        assert!(a.completion_rate() > 0.0, "{:?}", a.records);
    }

    #[test]
    fn scripted_device_fault_fails_the_in_flight_task() {
        // One job, one round: observe where the env-off round starts and
        // which devices compute it, then script faults that kill every
        // participant mid-round. The round must abort and retry.
        #[derive(Default)]
        struct RoundStarts(Vec<SimTime>);
        impl SimObserver for RoundStarts {
            fn on_round_start(&mut self, now: SimTime, _job_idx: usize, _round: u32) {
                self.0.push(now);
            }
        }
        let w = tiny_workload(1, 5, 1);
        let mut sched = venn_baselines::BaselineScheduler::fifo();
        let mut starts = RoundStarts::default();
        let mut assignments = crate::AssignmentLog::default();
        let off = Simulation::new(SimConfig::small()).run_observed(
            &w,
            &mut sched,
            &mut [&mut starts, &mut assignments],
        );
        assert_eq!(off.failures, 0, "baseline scenario has no departures");
        let t0 = starts.0[0];
        let faults: &'static [venn_env::DeviceFault] = Box::leak(
            assignments
                .assignments
                .iter()
                .map(|&(_, _, device)| venn_env::DeviceFault {
                    at_ms: t0 + 1_000,
                    device,
                })
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        );
        let env = venn_env::EnvConfig {
            faults,
            ..venn_env::EnvConfig::neutral()
        };
        let failed = run_fifo(
            &w,
            SimConfig {
                env,
                ..SimConfig::small()
            },
        );
        assert_eq!(
            failed.env.forced_offline, 5,
            "all five computing participants must be struck"
        );
        assert!(
            failed.failures >= 5,
            "their responses must arrive as failures"
        );
        assert!(failed.aborted_rounds >= 1, "the round cannot reach quorum");
        assert!(
            failed.completion_rate() > 0.99,
            "the job must still finish on retried capacity: {:?}",
            failed.records
        );
    }

    #[test]
    fn hold_expiries_release_devices_without_perturbing_determinism() {
        // Tight population + multi-day horizon: sessions end while devices
        // are held, exercising the O(1) tombstone release path.
        let w = tiny_workload(2, 30, 3);
        let config = SimConfig {
            population: 120,
            days: 3,
            ..SimConfig::small()
        };
        let mut sched = venn_baselines::BaselineScheduler::fifo();
        let mut trace = EventTrace::default();
        let r = Simulation::new(config).run_observed(&w, &mut sched, &mut [&mut trace]);
        assert!(
            trace.hold_expires > 0,
            "scenario must exercise hold expiry: {trace:?}"
        );
        let mut sched2 = venn_baselines::BaselineScheduler::fifo();
        let r2 = Simulation::new(config).run(&w, &mut sched2);
        assert_eq!(r.records, r2.records);
        assert_eq!(r.assignments, r2.assignments);
    }

    // --- observer behavior -------------------------------------------------

    #[test]
    fn observers_do_not_perturb_the_run() {
        let w = tiny_workload(4, 8, 3);
        let config = SimConfig::small();
        let plain = run_fifo(&w, config);
        let mut sched = venn_baselines::BaselineScheduler::fifo();
        let mut trace = EventTrace::default();
        let mut rounds = RoundRecorder::default();
        let mut completions = CompletionLog::default();
        let observed = Simulation::new(config).run_observed(
            &w,
            &mut sched,
            &mut [&mut trace, &mut rounds, &mut completions],
        );
        assert_eq!(plain.records, observed.records);
        assert_eq!(plain.assignments, observed.assignments);
        assert_eq!(plain.aborted_rounds, observed.aborted_rounds);
        assert_eq!(plain.events, observed.events);
    }

    #[test]
    fn event_trace_counts_every_event() {
        let w = tiny_workload(2, 5, 2);
        let mut sched = venn_baselines::BaselineScheduler::fifo();
        let mut trace = EventTrace::default();
        let r = Simulation::new(SimConfig::small()).run_observed(&w, &mut sched, &mut [&mut trace]);
        assert_eq!(trace.total, r.events);
        let by_kind = trace.job_arrivals
            + trace.session_starts
            + trace.env_disturbances
            + trace.check_ins
            + trace.hold_expires
            + trace.responses
            + trace.assign_failures
            + trace.round_deadlines
            + trace.round_starts
            + trace.cohort_wakes;
        assert_eq!(by_kind, trace.total);
        assert!(trace.session_starts > 0);
        assert!(trace.responses > 0);
    }

    #[test]
    fn round_recorder_matches_builtin_round_logs() {
        let w = tiny_workload(2, 5, 3);
        let config = SimConfig {
            record_rounds: true,
            ..SimConfig::small()
        };
        let mut sched = venn_baselines::BaselineScheduler::fifo();
        let mut recorder = RoundRecorder::default();
        let r = Simulation::new(config).run_observed(&w, &mut sched, &mut [&mut recorder]);
        assert_eq!(recorder.rounds, r.rounds);
        assert_eq!(recorder.rounds.len(), 6);
    }

    #[test]
    fn completion_log_sees_every_finished_job() {
        let w = tiny_workload(3, 5, 2);
        let mut sched = venn_baselines::BaselineScheduler::fifo();
        let mut log = CompletionLog::default();
        let r = Simulation::new(SimConfig::small()).run_observed(&w, &mut sched, &mut [&mut log]);
        let finished = r.records.iter().filter(|rec| rec.is_finished()).count();
        assert_eq!(log.finished.len(), finished);
        // Completion order is chronological.
        for pair in log.finished.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
    }

    #[test]
    fn world_can_be_stepped_manually() {
        let w = tiny_workload(1, 5, 1);
        let sim = Simulation::new(SimConfig::small());
        let mut sched = venn_baselines::BaselineScheduler::fifo();
        let mut world = sim.world(&w, sched.name());
        let mut steps = 0u64;
        while world.step(&mut sched, &mut []) {
            steps += 1;
        }
        assert_eq!(steps, world.events_processed());
        let result = world.finish(&mut []);
        assert_eq!(result.events, steps);
        assert!(result.completion_rate() > 0.99);
    }
}
