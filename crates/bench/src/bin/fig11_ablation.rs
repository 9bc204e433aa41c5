//! Figure 11 — average-JCT improvement breakdown of Venn's two components
//! on the Low and High workloads.
//!
//! Paper reference: Low — Random 1.0, FIFO 1.55, Venn w/o sched 1.62,
//! Venn w/o match 1.79, Venn 1.88. High — 1.0 / 1.42 / 1.42 / 1.63 / 1.63.
//! Tier matching matters most when contention is low (response collection
//! dominates); IRS matters most when contention is high.
//!
//! Run: `cargo run --release -p venn-bench --bin fig11_ablation [seeds]`

use venn_bench::{cli, mean_speedups_detailed, Experiment, SchedKind};
use venn_metrics::Table;
use venn_traces::WorkloadKind;

fn main() {
    let seeds = cli::seeds(300, 3);
    let kinds = [
        SchedKind::Random,
        SchedKind::Fifo,
        SchedKind::VennWoSched,
        SchedKind::VennWoMatch,
        SchedKind::Venn,
    ];
    let mut table = Table::new(
        "Figure 11: avg JCT improvement breakdown",
        &["Random", "FIFO", "Venn w/o sched", "Venn w/o match", "Venn"],
    );
    for wk in [WorkloadKind::Low, WorkloadKind::High] {
        let (speedups, completion) = mean_speedups_detailed(
            |seed| Experiment::paper_default(wk, None, seed),
            &kinds,
            &seeds,
        );
        table.row(wk.label(), &speedups);
        eprintln!("{}: completion {:?}", wk.label(), completion);
    }
    println!("{table}");
    println!("(paper Low: 1.0/1.55/1.62/1.79/1.88; High: 1.0/1.42/1.42/1.63/1.63)");
}
