//! Shared experiment harness for the paper's tables and figures.
//!
//! The `reproduce` binary and the baseline/scale gates build on the same
//! pieces:
//!
//! * [`SchedKind`] — enumerates every scheduler the paper evaluates and
//!   constructs a fresh instance per run;
//! * [`Experiment`] — a (simulation config, workload) pair with
//!   constructors matching §5.1's scenarios;
//! * [`run`] — executes one scheduler over one experiment;
//! * [`Matrix`] / [`run_matrix`] / `speedup_summary` — the shared sweep
//!   executor: declare a (scenario × seed × scheduler) grid once, fan the
//!   independent deterministic runs out across cores, and normalize
//!   average JCT against the Random baseline, the paper's headline metric;
//! * [`artifacts`] — the registry of the paper's tables and figures that
//!   `reproduce NAME [SEEDS]` prints;
//! * [`cli`] — the one flag reader and exit policy of every binary.

pub mod artifacts;
mod baseline;
pub mod cli;
mod matrix;
mod scale;

pub use baseline::{
    baseline_json, baseline_rows, diff_rows, parse_arm_header, parse_baseline, run_baseline,
    run_baseline_crashed, BaselineRow,
};
pub use matrix::{run_matrix, run_matrix_sequential, with_baseline, Matrix, MatrixCell, MatrixRun};
pub(crate) use matrix::{speedup_summary, ScenarioSpeedups};
pub use scale::{
    check_scale, parse_scale, run_scale_row, scale_experiment, scale_json, ScaleRow, SCALE_KINDS,
    SCALE_POPULATIONS,
};

use rand::rngs::StdRng;
use rand::SeedableRng;

use venn_core::{Scheduler, VennConfig, VennScheduler, DAY_MS, MINUTE_MS};
use venn_serve::SchedSpec;
use venn_sim::{SimConfig, SimResult, Simulation, World};
use venn_traces::{BiasKind, JobDemandModel, Workload, WorkloadKind};

/// Every scheduler the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedKind {
    /// Optimized random matching (the normalization baseline).
    Random,
    /// First-in-first-out.
    Fifo,
    /// Shortest remaining service first.
    Srsf,
    /// Full Venn (IRS + tier matching).
    Venn,
    /// Venn without the IRS scheduling algorithm (Fig. 11 arm).
    VennWoSched,
    /// Venn without tier matching (Fig. 11 arm).
    VennWoMatch,
    /// Venn with an explicit configuration (tier sweeps, fairness knob...).
    VennWith(VennConfig),
}

impl SchedKind {
    /// The four headline columns of Table 1, in order.
    pub(crate) const TABLE1: [SchedKind; 4] = [
        SchedKind::Random,
        SchedKind::Fifo,
        SchedKind::Srsf,
        SchedKind::Venn,
    ];

    /// Builds a fresh scheduler through the [`SchedSpec`] registry (only
    /// `VennWith` carries a configuration of its own). `seed` only
    /// affects randomized schedulers.
    pub fn build(&self, seed: u64) -> Box<dyn Scheduler> {
        let name = match self {
            SchedKind::Random => "random",
            SchedKind::Fifo => "fifo",
            SchedKind::Srsf => "srsf",
            SchedKind::Venn => "venn",
            SchedKind::VennWoSched => "venn-wo-sched",
            SchedKind::VennWoMatch => "venn-wo-match",
            SchedKind::VennWith(cfg) => {
                return Box::new(VennScheduler::new(VennConfig { seed, ..*cfg }))
            }
        };
        SchedSpec::named(name, seed)
            .build()
            .expect("every named SchedKind is a registered arm")
    }

    /// Column label.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            SchedKind::Random => "Random",
            SchedKind::Fifo => "FIFO",
            SchedKind::Srsf => "SRSF",
            SchedKind::Venn => "Venn",
            SchedKind::VennWoSched => "Venn w/o sched",
            SchedKind::VennWoMatch => "Venn w/o match",
            SchedKind::VennWith(_) => "Venn (custom)",
        }
    }
}

/// One experiment: an environment plus a workload all schedulers share.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Simulation environment.
    pub sim: SimConfig,
    /// Job workload.
    pub workload: Workload,
}

impl Experiment {
    /// The paper's default evaluation scale: 50 jobs, Poisson 30-min
    /// arrivals, four eligibility categories, 10 simulated days.
    pub fn paper_default(kind: WorkloadKind, bias: Option<BiasKind>, seed: u64) -> Experiment {
        Experiment::with_jobs(kind, bias, 50, seed)
    }

    /// Same setup with an explicit job count (Fig. 12 sweeps it).
    pub(crate) fn with_jobs(
        kind: WorkloadKind,
        bias: Option<BiasKind>,
        num_jobs: usize,
        seed: u64,
    ) -> Experiment {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E3779B97F4A7C15);
        let workload = Workload::generate(
            kind,
            bias,
            num_jobs,
            &JobDemandModel::default(),
            30.0 * MINUTE_MS as f64,
            &mut rng,
        );
        Experiment {
            sim: SimConfig {
                seed,
                ..SimConfig::default()
            },
            workload,
        }
    }

    /// A smaller, faster variant used by tests and smoke runs.
    pub fn smoke(kind: WorkloadKind, seed: u64) -> Experiment {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x517CC1B727220A95);
        let workload = Workload::generate(
            kind,
            None,
            16,
            &JobDemandModel {
                rounds_mean: 4.0,
                rounds_max: 12,
                demand_mean: 20.0,
                demand_max: 40,
                ..JobDemandModel::default()
            },
            10.0 * MINUTE_MS as f64,
            &mut rng,
        );
        Experiment {
            sim: SimConfig {
                population: 1_500,
                days: 5,
                seed,
                ..SimConfig::default()
            },
            workload,
        }
    }
}

/// Runs one scheduler over an experiment.
pub fn run(experiment: &Experiment, kind: SchedKind) -> SimResult {
    let mut scheduler = kind.build(experiment.sim.seed ^ 0xA5A5);
    Simulation::new(experiment.sim).run(&experiment.workload, &mut *scheduler)
}

/// [`run`] with a crash injected at the experiment's halfway point
/// (simulated time): the live world and scheduler are snapshotted, torn
/// down, and rebuilt from the snapshot bytes before the run finishes.
/// Checkpoint recovery is bit-invisible, so the result must equal
/// [`run`]'s byte for byte — `check_regression --crashed` replays the
/// committed baseline through this path and demands zero drift.
///
/// # Panics
///
/// Panics if the snapshot cannot be taken or restored — in a
/// deterministic in-process round trip either is a bug, not an I/O
/// hazard.
pub(crate) fn run_crashed(experiment: &Experiment, kind: SchedKind) -> SimResult {
    let halfway = u64::from(experiment.sim.days) * DAY_MS / 2;
    let mut scheduler = kind.build(experiment.sim.seed ^ 0xA5A5);
    let mut world = World::new(experiment.sim, &experiment.workload, scheduler.name());
    let mut crashed = false;
    while world.step(&mut *scheduler, &mut []) {
        if world.now() >= halfway {
            crashed = true;
            break;
        }
    }
    if !crashed {
        // The run dried up before its halfway point: nothing to crash.
        return world.finish(&mut []);
    }
    let bytes = venn_sim::snapshot_world(&world, &*scheduler).expect("snapshot at crash point");
    drop(world);
    drop(scheduler);
    let mut scheduler = kind.build(experiment.sim.seed ^ 0xA5A5);
    let mut world = venn_sim::resume_world(
        &bytes,
        experiment.sim,
        &experiment.workload,
        &mut *scheduler,
    )
    .expect("resume from snapshot");
    while world.step(&mut *scheduler, &mut []) {}
    world.finish(&mut [])
}

/// Speed-up of `other` over `baseline` restricted to the jobs in `subset`
/// (workload indices) — used for the Table 2/3 per-slice breakdowns.
/// Returns `None` if either side finished no job in the subset.
pub(crate) fn subset_speedup(
    baseline: &SimResult,
    other: &SimResult,
    subset: &[usize],
) -> Option<f64> {
    let avg = |r: &SimResult| -> Option<f64> {
        let jcts: Vec<f64> = subset
            .iter()
            .filter_map(|&i| r.records.get(i).and_then(|rec| rec.jct_ms()))
            .map(|v| v as f64)
            .collect();
        if jcts.is_empty() {
            None
        } else {
            Some(jcts.iter().sum::<f64>() / jcts.len() as f64)
        }
    };
    Some(avg(baseline)? / avg(other)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_schedulers_run_on_smoke_experiment() {
        let exp = Experiment::smoke(WorkloadKind::Even, 3);
        for kind in [
            SchedKind::Random,
            SchedKind::Fifo,
            SchedKind::Srsf,
            SchedKind::Venn,
            SchedKind::VennWoSched,
            SchedKind::VennWoMatch,
        ] {
            let r = run(&exp, kind);
            assert_eq!(r.records.len(), exp.workload.jobs.len(), "{kind:?}");
            assert!(r.completion_rate() > 0.5, "{kind:?}: {r:?}");
        }
    }

    #[test]
    fn experiments_are_deterministic() {
        let a = Experiment::smoke(WorkloadKind::Even, 5);
        let b = Experiment::smoke(WorkloadKind::Even, 5);
        assert_eq!(a.workload, b.workload);
        let ra = run(&a, SchedKind::Srsf);
        let rb = run(&b, SchedKind::Srsf);
        assert_eq!(ra.records, rb.records);
    }
}
