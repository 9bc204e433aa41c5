//! The shared sweep executor behind every paper artifact of `reproduce`.
//!
//! A [`Matrix`] declares a (scenario × seed × scheduler) grid; by naming
//! scenarios once and crossing them with seeds and [`SchedKind`]s, the
//! artifacts stop duplicating nested run loops. [`run_matrix`]
//! executes the grid in parallel — every cell is an independent,
//! deterministic simulation, so runs fan out across cores with rayon and
//! [`run_matrix_sequential`] produces byte-identical per-run results
//! (wall-clock telemetry aside) in the same cell order.

use std::time::Instant;

use rayon::prelude::*;

use venn_sim::SimResult;

use crate::{run, Experiment, SchedKind};

/// Builds the experiment for one scenario at a given seed.
type ScenarioFn<'a> = Box<dyn Fn(u64) -> Experiment + Sync + 'a>;

/// One cell of the sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// Scenario name (row label in most tables).
    pub scenario: String,
    /// Scheduler under test.
    pub kind: SchedKind,
    /// Environment/workload seed.
    pub(crate) seed: u64,
}

/// One executed cell.
#[derive(Debug)]
pub struct MatrixRun {
    /// The cell that produced this run.
    pub cell: MatrixCell,
    /// Simulation output — deterministic per cell.
    pub result: SimResult,
    /// Wall-clock milliseconds this run took (telemetry only; the one
    /// field that legitimately differs between parallel and sequential
    /// execution).
    pub(crate) wall_ms: u64,
}

/// A declarative (scenario × seed × scheduler) sweep.
///
/// ```
/// use venn_bench::{run_matrix, Experiment, Matrix, SchedKind};
/// use venn_traces::WorkloadKind;
///
/// let matrix = Matrix::new()
///     .scenario("even", |seed| Experiment::smoke(WorkloadKind::Even, seed))
///     .kinds(&[SchedKind::Random, SchedKind::Venn])
///     .seeds(&[1, 2]);
/// let runs = run_matrix(&matrix);
/// assert_eq!(runs.len(), 4);
/// ```
#[derive(Default)]
pub struct Matrix<'a> {
    scenarios: Vec<(String, ScenarioFn<'a>)>,
    kinds: Vec<SchedKind>,
    seeds: Vec<u64>,
}

impl<'a> Matrix<'a> {
    /// An empty matrix.
    pub fn new() -> Self {
        Matrix::default()
    }

    /// Adds a named scenario (an experiment builder parameterized by
    /// seed).
    ///
    /// # Panics
    ///
    /// Panics if a scenario with the same name is already registered —
    /// cells are resolved by name, so duplicates would silently alias.
    pub fn scenario(
        mut self,
        name: impl Into<String>,
        make: impl Fn(u64) -> Experiment + Sync + 'a,
    ) -> Self {
        let name = name.into();
        assert!(
            self.scenarios.iter().all(|(n, _)| *n != name),
            "duplicate scenario name {name:?}"
        );
        self.scenarios.push((name, Box::new(make)));
        self
    }

    /// Adds a scenario that ignores the seed axis and always runs one
    /// fixed experiment.
    pub(crate) fn fixed(self, name: impl Into<String>, experiment: Experiment) -> Self {
        self.scenario(name, move |_seed| experiment.clone())
    }

    /// Sets the schedulers to cross with every scenario.
    pub fn kinds(mut self, kinds: &[SchedKind]) -> Self {
        self.kinds = kinds.to_vec();
        self
    }

    /// Sets the seed axis.
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// The grid in deterministic order: scenario, then seed, then kind.
    pub fn cells(&self) -> Vec<MatrixCell> {
        let mut cells =
            Vec::with_capacity(self.scenarios.len() * self.seeds.len() * self.kinds.len());
        for (name, _) in &self.scenarios {
            for &seed in &self.seeds {
                for &kind in &self.kinds {
                    cells.push(MatrixCell {
                        scenario: name.clone(),
                        kind,
                        seed,
                    });
                }
            }
        }
        cells
    }

    fn execute(&self, cell: MatrixCell) -> MatrixRun {
        let make = &self
            .scenarios
            .iter()
            .find(|(name, _)| *name == cell.scenario)
            .expect("cell scenario comes from this matrix")
            .1;
        let experiment = make(cell.seed);
        let start = Instant::now();
        // Attribute the allocator high-water mark to this run. The
        // counters are process-global, so the number is only a per-run
        // figure under [`run_matrix_sequential`] (and only when the
        // driving binary installs the tracking allocator — otherwise it
        // stays 0, "not measured"); concurrent cells under [`run_matrix`]
        // blend into a whole-sweep peak, which is still a usable
        // memory-ceiling telemetry line.
        venn_metrics::alloc::reset_peak();
        let mut result = run(&experiment, cell.kind);
        result.peak_bytes = venn_metrics::alloc::peak_bytes();
        MatrixRun {
            cell,
            result,
            wall_ms: start.elapsed().as_millis() as u64,
        }
    }
}

/// Executes every cell of the grid in parallel across cores. Cell order
/// and per-run results are identical to [`run_matrix_sequential`]: each
/// run is an independent deterministic simulation, so parallelism cannot
/// change outcomes.
pub fn run_matrix(matrix: &Matrix) -> Vec<MatrixRun> {
    matrix
        .cells()
        .into_par_iter()
        .map(|cell| matrix.execute(cell))
        .collect()
}

/// Executes every cell one after another — the reference order for
/// determinism checks.
pub fn run_matrix_sequential(matrix: &Matrix) -> Vec<MatrixRun> {
    matrix
        .cells()
        .into_iter()
        .map(|cell| matrix.execute(cell))
        .collect()
}

/// Per-scenario average speed-ups over [`SchedKind::Random`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScenarioSpeedups {
    /// Scenario name.
    pub(crate) scenario: String,
    /// Mean per-seed `avg_jct(Random) / avg_jct(kind)` per requested kind.
    pub(crate) speedups: Vec<f64>,
    /// Mean job completion rate per requested kind.
    pub(crate) completion: Vec<f64>,
}

/// Folds matrix runs into per-scenario speed-up rows (the paper's
/// headline normalization). The matrix must include
/// [`SchedKind::Random`] runs for every (scenario, seed) pair to
/// normalize against.
///
/// # Panics
///
/// Panics if a (scenario, seed) pair lacks its Random baseline run.
pub(crate) fn speedup_summary(runs: &[MatrixRun], kinds: &[SchedKind]) -> Vec<ScenarioSpeedups> {
    let mut scenarios: Vec<&str> = Vec::new();
    for r in runs {
        if !scenarios.contains(&r.cell.scenario.as_str()) {
            scenarios.push(&r.cell.scenario);
        }
    }
    scenarios
        .iter()
        .map(|&scenario| {
            let in_scenario: Vec<&MatrixRun> = runs
                .iter()
                .filter(|r| r.cell.scenario == scenario)
                .collect();
            let mut seeds: Vec<u64> = Vec::new();
            for r in &in_scenario {
                if !seeds.contains(&r.cell.seed) {
                    seeds.push(r.cell.seed);
                }
            }
            let mut speedups = vec![0.0; kinds.len()];
            let mut completion = vec![0.0; kinds.len()];
            for &seed in &seeds {
                let find = |kind: SchedKind| {
                    in_scenario
                        .iter()
                        .find(|r| r.cell.seed == seed && r.cell.kind == kind)
                        .map(|r| &r.result)
                };
                let base_jct = find(SchedKind::Random)
                    .unwrap_or_else(|| {
                        panic!("matrix lacks Random baseline for {scenario:?} seed {seed}")
                    })
                    .avg_jct_ms();
                for (i, &kind) in kinds.iter().enumerate() {
                    let result = find(kind).unwrap_or_else(|| {
                        panic!("matrix lacks {kind:?} for {scenario:?} seed {seed}")
                    });
                    let jct = result.avg_jct_ms();
                    speedups[i] += if jct > 0.0 { base_jct / jct } else { f64::NAN };
                    completion[i] += result.completion_rate();
                }
            }
            for v in speedups.iter_mut().chain(completion.iter_mut()) {
                *v /= seeds.len() as f64;
            }
            ScenarioSpeedups {
                scenario: scenario.to_string(),
                speedups,
                completion,
            }
        })
        .collect()
}

/// Appends [`SchedKind::Random`] to `kinds` if absent — matrices
/// normalized by `speedup_summary` always need the baseline runs.
pub fn with_baseline(kinds: &[SchedKind]) -> Vec<SchedKind> {
    let mut all = kinds.to_vec();
    if !all.contains(&SchedKind::Random) {
        all.push(SchedKind::Random);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use venn_traces::WorkloadKind;

    fn smoke_matrix<'a>() -> Matrix<'a> {
        Matrix::new()
            .scenario("even", |seed| Experiment::smoke(WorkloadKind::Even, seed))
            .kinds(&[SchedKind::Random, SchedKind::Fifo])
            .seeds(&[3, 4])
    }

    #[test]
    fn cells_enumerate_the_grid_in_order() {
        let cells = smoke_matrix().cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(
            cells.iter().map(|c| (c.seed, c.kind)).collect::<Vec<_>>(),
            vec![
                (3, SchedKind::Random),
                (3, SchedKind::Fifo),
                (4, SchedKind::Random),
                (4, SchedKind::Fifo),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "duplicate scenario name")]
    fn duplicate_scenario_names_are_rejected() {
        let _ = Matrix::new()
            .scenario("even", |seed| Experiment::smoke(WorkloadKind::Even, seed))
            .scenario("even", |seed| Experiment::smoke(WorkloadKind::Small, seed));
    }

    #[test]
    fn parallel_matches_sequential() {
        let m = smoke_matrix();
        let par = run_matrix(&m);
        let seq = run_matrix_sequential(&m);
        assert_eq!(par.len(), seq.len());
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.cell, s.cell);
            assert_eq!(p.result.records, s.result.records, "{:?}", p.cell);
            assert_eq!(p.result.assignments, s.result.assignments);
            assert_eq!(p.result.events, s.result.events);
        }
    }

    #[test]
    fn speedup_summary_normalizes_to_random() {
        let m = smoke_matrix();
        let runs = run_matrix(&m);
        let rows = speedup_summary(&runs, &[SchedKind::Random, SchedKind::Fifo]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].scenario, "even");
        assert!(
            (rows[0].speedups[0] - 1.0).abs() < 1e-12,
            "Random vs itself"
        );
        assert!(rows[0].speedups[1].is_finite());
        assert!(rows[0].completion.iter().all(|&c| c > 0.5));
    }

    #[test]
    fn with_baseline_inserts_random_once() {
        let k = with_baseline(&[SchedKind::Venn]);
        assert_eq!(k, vec![SchedKind::Venn, SchedKind::Random]);
        let k2 = with_baseline(&k);
        assert_eq!(k2, k);
    }

    #[test]
    fn fixed_scenario_ignores_seed() {
        let exp = Experiment::smoke(WorkloadKind::Even, 9);
        let m = Matrix::new()
            .fixed("pinned", exp.clone())
            .kinds(&[SchedKind::Fifo])
            .seeds(&[1, 2]);
        let runs = run_matrix_sequential(&m);
        assert_eq!(runs[0].result.records, runs[1].result.records);
    }
}
