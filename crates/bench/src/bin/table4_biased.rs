//! Table 4 — biased workloads case study: half of each workload's jobs ask
//! for one favored category (General / Compute / Memory / High-Perf), the
//! rest spread evenly, creating uneven queue lengths across job groups.
//!
//! Paper values: FIFO 1.46-1.73×, SRSF 1.78-2.08×, Venn 1.94-2.27×.
//!
//! Run: `cargo run --release -p venn-bench --bin table4_biased [seeds]`

use venn_bench::{cli, mean_speedups_detailed, Experiment, SchedKind};
use venn_metrics::Table;
use venn_traces::{BiasKind, WorkloadKind};

fn main() {
    let seeds = cli::seeds(800, 2);
    let kinds = [SchedKind::Fifo, SchedKind::Srsf, SchedKind::Venn];
    let mut table = Table::new(
        "Table 4: avg JCT speed-up over Random on biased workloads",
        &["FIFO", "SRSF", "Venn"],
    );
    for bias in BiasKind::ALL {
        let (speedups, completion) = mean_speedups_detailed(
            |seed| Experiment::paper_default(WorkloadKind::Even, Some(bias), seed),
            &kinds,
            &seeds,
        );
        table.row(bias.label(), &speedups);
        eprintln!("{}: completion {:?}", bias.label(), completion);
    }
    println!("{table}");
    println!("(paper: FIFO 1.46-1.73, SRSF 1.78-2.08, Venn 1.94-2.27)");
}
