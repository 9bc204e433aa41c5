//! Every scheduler variant the evaluation knows, driven through one small
//! simulation — and the parallel sweep executor checked against
//! sequential execution.

use rand::rngs::StdRng;
use rand::SeedableRng;

use venn::bench::{
    run, run_matrix, run_matrix_sequential, with_baseline, Experiment, Matrix, SchedKind,
};
use venn::core::{VennConfig, MINUTE_MS};
use venn::sim::SimConfig;
use venn::traces::{JobDemandModel, Workload, WorkloadKind};

/// A fast experiment: 8 modest jobs on the `SimConfig::small` environment.
fn small_experiment(seed: u64) -> Experiment {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
    let workload = Workload::generate(
        WorkloadKind::Even,
        None,
        8,
        &JobDemandModel {
            rounds_mean: 3.0,
            rounds_max: 6,
            demand_mean: 10.0,
            demand_max: 20,
            ..JobDemandModel::default()
        },
        10.0 * MINUTE_MS as f64,
        &mut rng,
    );
    Experiment {
        sim: SimConfig {
            seed,
            ..SimConfig::small()
        },
        workload,
    }
}

/// Every `SchedKind` variant, including the Fig. 11 ablation arms and an
/// explicitly configured Venn.
fn every_sched_kind() -> Vec<SchedKind> {
    vec![
        SchedKind::Random,
        SchedKind::Fifo,
        SchedKind::Srsf,
        SchedKind::Venn,
        SchedKind::VennWoSched,
        SchedKind::VennWoMatch,
        SchedKind::VennWith(VennConfig::with_fairness(2.0)),
    ]
}

#[test]
fn every_sched_kind_runs_and_is_deterministic() {
    let exp = small_experiment(21);
    for kind in every_sched_kind() {
        let a = run(&exp, kind);
        let b = run(&exp, kind);
        assert_eq!(a.records, b.records, "{kind:?} must be deterministic");
        assert_eq!(a.assignments, b.assignments, "{kind:?}");
        assert_eq!(a.aborted_rounds, b.aborted_rounds, "{kind:?}");
        assert_eq!(a.events, b.events, "{kind:?}");
        assert_eq!(a.records.len(), exp.workload.jobs.len(), "{kind:?}");
        assert!(
            a.completion_rate() > 0.5,
            "{kind:?} completed only {:.2}",
            a.completion_rate()
        );
    }
}

#[test]
fn parallel_matrix_matches_sequential_on_a_twelve_plus_run_sweep() {
    // 2 scenarios × 2 seeds × 4 schedulers = 16 independent runs.
    let kinds = [SchedKind::Fifo, SchedKind::Srsf, SchedKind::Venn];
    let matrix = Matrix::new()
        .scenario("small", small_experiment)
        .scenario("tight", |seed| {
            let mut exp = small_experiment(seed ^ 0x5A5A);
            exp.sim.population = 400;
            exp
        })
        .kinds(&with_baseline(&kinds))
        .seeds(&[31, 32]);
    assert!(matrix.cells().len() >= 12, "sweep must cover >= 12 runs");

    let par = run_matrix(&matrix);
    let seq = run_matrix_sequential(&matrix);
    assert_eq!(par.len(), seq.len());
    for (p, s) in par.iter().zip(&seq) {
        assert_eq!(p.cell, s.cell, "cell order must match");
        assert_eq!(
            p.result.records, s.result.records,
            "same seeds must give same JCTs: {:?}",
            p.cell
        );
        assert_eq!(p.result.assignments, s.result.assignments, "{:?}", p.cell);
        assert_eq!(
            p.result.aborted_rounds, s.result.aborted_rounds,
            "{:?}",
            p.cell
        );
        assert_eq!(p.result.failures, s.result.failures, "{:?}", p.cell);
        assert_eq!(p.result.events, s.result.events, "{:?}", p.cell);
    }
}

#[test]
fn matrix_scenarios_differ_and_seeds_matter() {
    let matrix = Matrix::new()
        .scenario("small", small_experiment)
        .kinds(&[SchedKind::Fifo])
        .seeds(&[41, 42]);
    let runs = run_matrix(&matrix);
    assert_eq!(runs.len(), 2);
    assert_ne!(
        runs[0].result.records, runs[1].result.records,
        "different seeds must produce different outcomes"
    );
}

#[test]
fn scenario_presets_sweep_through_the_matrix() {
    // The `venn-env` scenario axis composes with the sweep executor:
    // every environment preset runs as a named scenario and produces a
    // complete, deterministic result.
    use venn::env::EnvPreset;
    let mut matrix = Matrix::new();
    for env in EnvPreset::ALL {
        matrix = matrix.scenario(env.label(), move |seed| {
            let mut exp = small_experiment(seed);
            exp.sim.env = env.config();
            exp
        });
    }
    let matrix = matrix
        .kinds(&[SchedKind::Random, SchedKind::Venn])
        .seeds(&[61]);
    let runs = run_matrix(&matrix);
    assert_eq!(runs.len(), EnvPreset::ALL.len() * 2);
    for r in &runs {
        assert_eq!(r.result.records.len(), 8, "{:?}", r.cell);
        if r.cell.scenario == EnvPreset::Off.label() {
            assert!(r.result.env.is_empty(), "{:?}", r.cell);
        }
    }
    // The off and chaos arms of the same scheduler/seed must differ —
    // the environment axis is live inside the sweep.
    let venn_of = |env: EnvPreset| {
        runs.iter()
            .find(|r| r.cell.scenario == env.label() && r.cell.kind == SchedKind::Venn)
            .expect("cell present")
    };
    assert_ne!(
        venn_of(EnvPreset::Off).result.records,
        venn_of(EnvPreset::Chaos).result.records,
        "chaos must perturb outcomes"
    );
}
