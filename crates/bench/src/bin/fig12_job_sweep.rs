//! Figure 12 — average-JCT improvement of Venn / SRSF / FIFO over Random
//! as the number of concurrent jobs grows (25 / 50 / 75).
//!
//! Paper shape: Venn stays ahead, and its margin grows with contention.
//!
//! The whole (job-count × seed × scheduler) grid runs in parallel through
//! [`run_matrix`].
//!
//! Run: `cargo run --release -p venn-bench --bin fig12_job_sweep [seeds]`

use venn_bench::{cli, run_matrix, speedup_summary, with_baseline, Experiment, Matrix, SchedKind};
use venn_metrics::Table;
use venn_traces::WorkloadKind;

fn main() {
    let seeds = cli::seeds(900, 2);
    let kinds = [SchedKind::Fifo, SchedKind::Srsf, SchedKind::Venn];
    let mut matrix = Matrix::new().kinds(&with_baseline(&kinds)).seeds(&seeds);
    for jobs in [25usize, 50, 75] {
        matrix = matrix.scenario(format!("{jobs} jobs"), move |seed| {
            Experiment::with_jobs(WorkloadKind::Even, None, jobs, seed)
        });
    }
    let runs = run_matrix(&matrix);

    let mut table = Table::new(
        "Figure 12: speed-up over Random vs number of jobs (Even workload)",
        &["FIFO", "SRSF", "Venn"],
    );
    for row in speedup_summary(&runs, &kinds) {
        table.row(&row.scenario, &row.speedups);
        eprintln!("{}: completion {:?}", row.scenario, row.completion);
    }
    println!("{table}");
    println!("(paper: Venn leads at every job count; gains grow with contention)");
}
