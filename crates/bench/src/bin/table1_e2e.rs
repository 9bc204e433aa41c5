//! Table 1 — average-JCT improvement over Random matching for FIFO, SRSF,
//! and Venn across the five workload scenarios (Even/Small/Large/Low/High).
//!
//! Paper reference values: Venn 1.63×–1.88×, always ahead of FIFO and SRSF.
//!
//! The whole (scenario × seed × scheduler) grid runs in parallel through
//! [`run_matrix`].
//!
//! Run: `cargo run --release -p venn-bench --bin table1_e2e [seeds]`

use venn_bench::{cli, run_matrix, speedup_summary, with_baseline, Experiment, Matrix, SchedKind};
use venn_metrics::Table;
use venn_traces::WorkloadKind;

fn main() {
    let seeds = cli::seeds(100, 3);
    let kinds = [SchedKind::Fifo, SchedKind::Srsf, SchedKind::Venn];
    let mut matrix = Matrix::new().kinds(&with_baseline(&kinds)).seeds(&seeds);
    for wk in WorkloadKind::ALL {
        matrix = matrix.scenario(wk.label(), move |seed| {
            Experiment::paper_default(wk, None, seed)
        });
    }
    let runs = run_matrix(&matrix);

    let mut table = Table::new(
        "Table 1: avg JCT speed-up over Random matching",
        &["FIFO", "SRSF", "Venn"],
    );
    for row in speedup_summary(&runs, &kinds) {
        table.row(&row.scenario, &row.speedups);
        eprintln!(
            "{} done: speedups {:?} completion {:?}",
            row.scenario, row.speedups, row.completion
        );
    }
    println!("{table}");
    println!(
        "(averaged over {} seeds; paper: Venn 1.63x-1.88x)",
        seeds.len()
    );
}
