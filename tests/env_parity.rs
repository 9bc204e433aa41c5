//! The `venn-env` subsystem's two headline guarantees:
//!
//! 1. **Env-off parity** — with `--env off` (the default) the kernel is
//!    bit-identical to the pre-environment kernel: replaying the
//!    committed `BENCH_BASELINE.json` matrix reproduces every
//!    deterministic field byte for byte.
//! 2. **Per-seed reproducibility of every preset** — the three new
//!    scenario presets run for every `SchedKind` across seeds with
//!    run-to-run identical results, on the gated and the un-gated arm.
//!
//! Plus the quorum/abort edge case of the new mid-round dropout path: a
//! round whose dropouts land the report count exactly on the 80 % quorum
//! boundary succeeds, while one more dropout aborts it.
//!
//! Built on the shared differential harness in `tests/common/parity.rs`.

mod common;

use common::parity::{
    assert_outcome_parity, assert_run_parity, contended_workload, every_sched_kind, observe,
    observe_kind, CheckInTap, Observed, SCHED_SEED_SALT,
};

use venn::bench::{baseline_rows, diff_rows, parse_baseline, run_baseline, SchedKind};
use venn::core::{JobId, SimTime, SpecCategory, MINUTE_MS};
use venn::env::{DeviceFault, EnvConfig, EnvPreset};
use venn::sim::{EventKind, PopMode, RoundRecorder, SimConfig, SimObserver, SimResult, Simulation};
use venn::traces::{JobPlan, Workload};

const PRESETS: [EnvPreset; 3] = [
    EnvPreset::FlashCrowd,
    EnvPreset::StragglerHeavy,
    EnvPreset::MassDropout,
];

/// The same small-but-contended experiment the gating parity suite
/// uses, with a scenario preset applied.
fn experiment(seed: u64, env: EnvPreset) -> (SimConfig, Workload) {
    let sim = SimConfig {
        population: 400,
        days: 2,
        seed,
        env: env.config(),
        ..SimConfig::default()
    };
    (sim, contended_workload(seed))
}

fn run_logged(sim: SimConfig, workload: &Workload, kind: SchedKind) -> Observed {
    observe_kind(sim, workload, kind)
}

/// [`run_logged`] plus the `(time, device)` stream of supply observations
/// the scheduler was fed, on the gated or the un-gated arm.
fn run_tapped(
    sim: SimConfig,
    workload: &Workload,
    kind: SchedKind,
    ungated: bool,
) -> (Observed, Vec<(SimTime, u64)>) {
    let mut sched = kind.build(sim.seed ^ SCHED_SEED_SALT);
    let mut tap = CheckInTap::new(&mut *sched, ungated);
    let observed = observe(sim, workload, &mut tap);
    (observed, tap.seen)
}

/// Replaying the committed benchmark baseline with the environment
/// subsystem compiled in (but off) must reproduce every deterministic
/// field byte for byte — the env-off arm is the pre-environment kernel.
#[test]
fn env_off_reproduces_the_committed_baseline_exactly() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_BASELINE.json");
    let text = std::fs::read_to_string(path).expect("committed baseline present");
    let (seed, committed) = parse_baseline(&text).expect("committed baseline parses");
    let (_, runs) = run_baseline(seed, EnvPreset::Off);
    let fresh = baseline_rows(&runs);
    assert_eq!(committed.len(), fresh.len(), "scheduler row count");
    for (c, f) in committed.iter().zip(&fresh) {
        let drift = diff_rows(c, f);
        assert!(drift.is_empty(), "{}: {drift:?}", c.name);
    }
    for r in &runs {
        assert!(
            r.result.env.is_empty(),
            "env-off runs must carry no env telemetry"
        );
    }
}

/// Every new preset runs for every `SchedKind` across two seeds with
/// run-to-run identical results — scenarios replay bit for bit per seed.
#[test]
fn presets_replay_identically_for_every_sched_kind() {
    for preset in PRESETS {
        for seed in [101u64, 102] {
            let (sim, workload) = experiment(seed, preset);
            for kind in every_sched_kind() {
                let a = run_logged(sim, &workload, kind);
                let b = run_logged(sim, &workload, kind);
                assert_run_parity(&a, &b, &format!("{preset:?} {kind:?} seed {seed}"));
                assert_eq!(
                    a.result.records.len(),
                    workload.jobs.len(),
                    "{preset:?} {kind:?}"
                );
            }
        }
    }
}

/// Demand gating stays a pure cost optimization under every preset: the
/// un-gated arm (a scheduler that keeps the default `has_open_demand`)
/// reproduces the default arm's assignment streams and
/// results while the environment is injecting churn, stragglers, and
/// faults. The lazy chaos case is the oracle for
/// the parked polls' cached session ends: its jobs arrive six hours in,
/// so the first mass-offline wave (hour 3.8) shrinks sessions under a
/// fully parked population, on a pool that retires devices.
#[test]
fn gating_arms_stay_identical_under_env_presets() {
    let cases = PRESETS
        .map(|preset| (preset, PopMode::Eager, 0))
        .into_iter()
        .chain([(EnvPreset::Chaos, PopMode::Lazy, 6 * 60 * MINUTE_MS)]);
    for (preset, pop_mode, delay_ms) in cases {
        let (sim, mut workload) = experiment(103, preset);
        let sim = SimConfig { pop_mode, ..sim };
        for plan in &mut workload.jobs {
            plan.arrival_ms += delay_ms;
        }
        for kind in [SchedKind::Random, SchedKind::Srsf, SchedKind::Venn] {
            let (def, def_seen) = run_tapped(sim, &workload, kind, false);
            let (ungated, ungated_seen) = run_tapped(sim, &workload, kind, true);
            if kind == SchedKind::Venn {
                // Gating replays exactly the observations it suppressed:
                // same records, same order, same timestamps (polls still
                // parked when the last event dispatches never elapse).
                assert!(
                    ungated_seen.starts_with(&def_seen),
                    "{preset:?} {pop_mode:?}: supply observations diverge"
                );
            }
            assert_outcome_parity(
                &def,
                &ungated,
                &format!("{preset:?} {pop_mode:?} {kind:?} vs un-gated"),
            );
            assert!(
                def.result.events <= ungated.result.events,
                "{preset:?} {pop_mode:?} {kind:?}: gating may only remove events"
            );
        }
    }
}

/// The environment must actually perturb runs: a flash crowd injects
/// supply, stragglers stretch responses, mass dropouts force devices
/// offline.
#[test]
fn presets_visibly_perturb_the_run() {
    let run_preset = |preset| {
        let (sim, workload) = experiment(104, preset);
        run_logged(sim, &workload, SchedKind::Fifo).result
    };
    let off = run_preset(EnvPreset::Off);
    assert!(off.env.is_empty());
    let crowd = run_preset(EnvPreset::FlashCrowd);
    assert_ne!(
        off.events, crowd.events,
        "flash-crowd sessions must change the event stream"
    );
    let straggler = run_preset(EnvPreset::StragglerHeavy);
    assert_eq!(straggler.env.tier_response_ms.len(), 4);
    assert!(
        straggler
            .env
            .tier_response_ms
            .iter()
            .map(|h| h.total())
            .sum::<u64>()
            > 0,
        "tier histograms must fill"
    );
    let dropout = run_preset(EnvPreset::MassDropout);
    assert!(
        dropout.env.forced_offline > 0,
        "mass-offline waves must claim victims: {:?}",
        dropout.env
    );
}

// --- the quorum/abort boundary of the mid-round dropout path ------------

/// Captures round starts and the `Response` events of round 0 of job 0.
#[derive(Default)]
struct RoundZeroTrace {
    round_start: Option<SimTime>,
    responses: Vec<(SimTime, usize)>,
}

impl SimObserver for RoundZeroTrace {
    fn on_event(&mut self, now: SimTime, kind: &EventKind) {
        if let EventKind::Response {
            job,
            epoch: 0,
            device,
            ..
        } = kind
        {
            if job.as_u64() == 0 {
                self.responses.push((now, *device));
            }
        }
    }

    fn on_round_start(&mut self, now: SimTime, job_idx: usize, round: u32) {
        if job_idx == 0 && round == 0 {
            self.round_start = Some(now);
        }
    }
}

fn boundary_workload() -> Workload {
    Workload {
        jobs: vec![JobPlan {
            id: JobId::new(0),
            arrival_ms: 1_000,
            category: SpecCategory::General,
            rounds: 1,
            demand: 5,
            task_ms: 30_000,
        }],
    }
}

fn run_with_faults(w: &Workload, faults: &'static [DeviceFault]) -> (SimResult, RoundRecorder) {
    let config = SimConfig {
        env: EnvConfig {
            faults,
            ..EnvConfig::neutral()
        },
        ..SimConfig::small()
    };
    let mut sched = venn::baselines::BaselineScheduler::fifo();
    let mut rounds = RoundRecorder::default();
    let result = Simulation::new(config).run_observed(w, &mut sched, &mut [&mut rounds]);
    (result, rounds)
}

/// Demand 5 at the paper's 80 % quorum needs exactly 4 reports. Dropping
/// the round's slowest participant mid-round leaves the count exactly
/// *on* the boundary — the round must succeed; dropping the two slowest
/// leaves it one short — the round must abort at its deadline.
#[test]
fn dropouts_on_the_quorum_boundary_succeed_one_fewer_aborts() {
    let w = boundary_workload();
    let config = SimConfig::small();
    assert_eq!(
        SimConfig::quorum_target(5),
        4,
        "80 % of 5 is exactly 4 reports"
    );

    // Observe the untouched round: when it starts and when each of the
    // five participants would report.
    let mut sched = venn::baselines::BaselineScheduler::fifo();
    let mut trace = RoundZeroTrace::default();
    let off = Simulation::new(config).run_observed(&w, &mut sched, &mut [&mut trace]);
    assert!(off.completion_rate() > 0.99, "{:?}", off.records);
    assert_eq!(off.aborted_rounds, 0);
    let t0 = trace.round_start.expect("round 0 started");
    let mut responses = trace.responses.clone();
    assert_eq!(responses.len(), 5, "all five responses fire (stale or not)");
    responses.sort_unstable();

    // Exactly on the boundary: kill the slowest participant mid-round.
    let (t_last, slowest) = responses[4];
    assert!(t_last > t0 + 1, "response must land after the round starts");
    let one: &'static [DeviceFault] = Box::leak(Box::new([DeviceFault {
        at_ms: t_last - 1,
        device: slowest,
    }]));
    let (on_boundary, rounds) = run_with_faults(&w, one);
    assert_eq!(on_boundary.env.forced_offline, 1);
    assert_eq!(
        on_boundary.aborted_rounds, 0,
        "4 of 5 reports is exactly the quorum — the round must succeed"
    );
    assert_eq!(on_boundary.records[0].rounds_completed, 1);
    assert_eq!(
        rounds.rounds[0].participants.len(),
        4,
        "exactly the quorum reported"
    );

    // One fewer: kill the two slowest before either reports.
    let (t_fourth, fourth) = responses[3];
    assert!(t_fourth > t0 + 1);
    let two: &'static [DeviceFault] = Box::leak(Box::new([
        DeviceFault {
            at_ms: t_fourth - 1,
            device: fourth,
        },
        DeviceFault {
            at_ms: t_fourth - 1,
            device: slowest,
        },
    ]));
    let (below, _) = run_with_faults(&w, two);
    assert_eq!(below.env.forced_offline, 2);
    assert!(
        below.records[0].rounds_aborted >= 1,
        "3 of 5 reports misses the quorum — the round must abort: {:?}",
        below.records
    );
    assert!(below.aborted_rounds >= 1);
}
